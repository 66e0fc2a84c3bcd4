"""The ``python -m repro.experiments`` entry point."""

import contextlib
import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.__main__ as cli
from repro.experiments import common
from repro.experiments.__main__ import main


def test_list_mode(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "fig9" in out
    assert "fig10" in out


def test_run_small_experiment(capsys):
    assert main(["dataset", "--scale", "small"]) == 0
    out = capsys.readouterr().out
    assert "tests" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["fig2"])


def test_duration_passthrough(capsys):
    assert main(["fig1", "--duration", "120", "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert "MOB" in out


class _WouldRun(Exception):
    """Raised in place of running the experiment: every check passed."""


@contextlib.contextmanager
def _would_run():
    """Stub out the experiment and undo any CLI-set campaign defaults."""
    with contextlib.ExitStack() as stack:
        for name in ("_default_workers", "_default_resilience", "_default_cache_dir"):
            stack.enter_context(
                mock.patch.object(common, name, getattr(common, name))
            )
        yield stack.enter_context(
            mock.patch.object(cli, "run_experiment", side_effect=_WouldRun)
        )


@pytest.mark.parametrize(
    "bad",
    [
        ["--scale", "bogus"],
        ["--workers", "0"],
        ["--seed", "-1"],
        ["--drive-timeout", "-1"],
        ["--drive-timeout", "nan"],
        ["--drive-timeout", "inf"],
        ["--duration", "0"],
        ["--retries", "-1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_argument_is_a_usage_error(bad, capsys):
    with _would_run() as run:
        with pytest.raises(SystemExit) as exc:
            main(["fig3", *bad])
    assert exc.value.code == 2
    assert not run.called
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert bad[0] in errors[0]
    assert "Traceback" not in captured.err


@settings(max_examples=80, deadline=None)
@given(
    option=st.sampled_from(
        ("--workers", "--seed", "--duration", "--retries", "--drive-timeout")
    ),
    value=st.one_of(
        st.integers(min_value=-(2**40), max_value=2**40),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
)
def test_numeric_arguments_run_or_exit_2(option, value):
    if option == "--workers" and isinstance(value, int):
        # Large counts are valid but would start that many processes
        # if the stub ever let the run through.
        value = max(min(value, 4), -4)
    argv = ["fig1", option, repr(value) if isinstance(value, float) else str(value)]
    with _would_run(), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(argv)
        except _WouldRun:
            return
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    pytest.fail(f"{argv} neither ran nor exited 2")
