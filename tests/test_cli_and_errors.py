"""Tests for the CLI entry point and the error hierarchy."""

import pytest

from repro import __main__ as cli
from repro import errors


# -- CLI --------------------------------------------------------------------------


def test_cli_list(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("table2", "fig5", "fig8", "ablation"):
        assert name in out


def test_cli_runs_an_experiment(capsys):
    assert cli.main(["table4"]) == 0
    out = capsys.readouterr().out
    assert "Table 4" in out
    assert "completed in" in out


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        cli.main(["fig99"])


def test_cli_claims_prints_a_table_per_experiment(capsys):
    assert cli.main(["claims"]) == 0
    out = capsys.readouterr().out
    for name in cli.EXPERIMENTS:
        assert f"<!-- claims:{name} -->" in out
        assert f"<!-- /claims:{name} -->" in out


def test_cli_experiments_cover_every_harness():
    import pkgutil

    import repro.harness as harness

    covered = {module.__name__.rsplit(".", 1)[-1]
               for module, _scales in cli.EXPERIMENTS.values()}
    modules = {info.name for info in pkgutil.iter_modules(harness.__path__)}
    assert covered == modules - {"claims", "runner"}


# -- error hierarchy ----------------------------------------------------------------


def test_cloud_errors_are_repro_errors():
    for exc_type in (errors.NetworkError, errors.NodeCrashedError,
                     errors.NoSuchKeyError, errors.ObjectLostError,
                     errors.FaasError, errors.InvocationError,
                     errors.ThrottlingError,
                     errors.RetriesExhaustedError):
        assert issubclass(exc_type, errors.CloudError)
        assert issubclass(exc_type, errors.ReproError)


def test_simulation_errors_separate_from_cloud():
    assert issubclass(errors.DeadlockError, errors.SimulationError)
    assert not issubclass(errors.DeadlockError, errors.CloudError)


def test_shutdown_is_base_exception():
    # Must escape `except Exception` in application code.
    assert issubclass(errors.SimShutdown, BaseException)
    assert not issubclass(errors.SimShutdown, Exception)


def test_invocation_error_keeps_cause():
    cause = ValueError("inner")
    error = errors.InvocationError("outer", cause=cause)
    assert error.cause is cause


def test_deadlock_error_lists_threads():
    error = errors.DeadlockError(["a", "b"])
    assert "a" in str(error) and "b" in str(error)
    assert error.blocked_names == ["a", "b"]
