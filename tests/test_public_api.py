"""Tests of the public package surface: exports, exceptions, version."""

import pytest

import repro
from repro import exceptions


class TestExports:
    def test_version_is_exposed(self):
        assert repro.__version__ == "1.8.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_key_entry_points_present(self):
        assert callable(repro.factorize)
        assert callable(repro.load_dataset)
        assert callable(repro.calibrate_platform)
        assert callable(repro.solve_alpha)
        assert "hsgd_star" in repro.ALGORITHMS

    def test_subpackage_alls_resolve(self):
        import repro.core
        import repro.costmodel
        import repro.datasets
        import repro.exec
        import repro.experiments
        import repro.hardware
        import repro.metrics
        import repro.serve
        import repro.sgd
        import repro.sim
        import repro.sparse

        for module in (
            repro.core, repro.costmodel, repro.datasets, repro.exec,
            repro.experiments, repro.hardware, repro.metrics, repro.serve,
            repro.sgd, repro.sim, repro.sparse,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name} missing"


class TestExceptionHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(exceptions):
            obj = getattr(exceptions, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and name != "ReproError":
                assert issubclass(obj, exceptions.ReproError), name

    def test_calibration_error_is_cost_model_error(self):
        assert issubclass(exceptions.CalibrationError, exceptions.CostModelError)

    def test_library_errors_catchable_with_base_class(self):
        from repro.sparse import SparseRatingMatrix

        with pytest.raises(exceptions.ReproError):
            SparseRatingMatrix.from_triples([])

    def test_cli_console_script_entry_point(self):
        from repro.cli import main

        assert callable(main)
