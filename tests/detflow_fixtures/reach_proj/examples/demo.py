# Fixture entry point: keeps for_examples, Robot, poke, stale and
# via_package alive.
from pkg import via_package
from pkg.core import Robot, for_examples, poke, stale


def main():
    return for_examples(), poke(Robot()), stale(), via_package()


if __name__ == "__main__":
    main()
