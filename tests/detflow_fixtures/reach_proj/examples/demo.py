# Fixture entry point: keeps for_examples, Robot, poke and stale alive.
from pkg.core import Robot, for_examples, poke, stale


def main():
    return for_examples(), poke(Robot()), stale()


if __name__ == "__main__":
    main()
