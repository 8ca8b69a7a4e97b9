"""The exception hierarchy of ``repro.errors``."""

import pytest

import repro.errors as errors_mod
from repro.errors import ReproError


class TestErrorHierarchy:
    def test_every_exported_error_is_a_repro_error(self):
        exception_types = [
            obj
            for name, obj in vars(errors_mod).items()
            if isinstance(obj, type)
            and issubclass(obj, BaseException)
            and obj.__module__ == "repro.errors"
        ]
        assert len(exception_types) > 15
        for exc_type in exception_types:
            assert issubclass(exc_type, ReproError), exc_type

    def test_remote_execution_error_carries_traceback(self):
        from repro.errors import RemoteExecutionError

        error = RemoteExecutionError("boom", remote_traceback="TB")
        assert error.remote_traceback == "TB"

    def test_catching_base_class_catches_everything(self):
        from repro.errors import DmaatbError

        with pytest.raises(ReproError):
            raise DmaatbError("x")
