"""Unit tests for the exception hierarchy."""

import pytest

from repro.errors import (
    CompositionError,
    EngineError,
    InvalidTransactionState,
    LockDenied,
    ModelError,
    NotEnabledError,
    ReproError,
    RetryLater,
    SerializationFailure,
    SystemTypeError,
    TransactionAborted,
    WellFormednessError,
)


class TestHierarchy:
    def test_everything_is_repro_error(self):
        for exc_type in (
            ModelError,
            NotEnabledError,
            CompositionError,
            WellFormednessError,
            SystemTypeError,
            SerializationFailure,
            EngineError,
            TransactionAborted,
            InvalidTransactionState,
            LockDenied,
        ):
            assert issubclass(exc_type, ReproError)

    def test_model_errors(self):
        assert issubclass(NotEnabledError, ModelError)
        assert issubclass(CompositionError, ModelError)

    def test_engine_errors(self):
        for exc_type in (
            TransactionAborted,
            InvalidTransactionState,
            LockDenied,
        ):
            assert issubclass(exc_type, EngineError)


class TestPayloads:
    def test_transaction_aborted_carries_context(self):
        exc = TransactionAborted((0, 1), reason="victim")
        assert exc.transaction_id == (0, 1)
        assert exc.reason == "victim"
        assert "victim" in str(exc)

    def test_transaction_aborted_without_reason(self):
        exc = TransactionAborted((0,))
        assert "aborted" in str(exc)

    def test_lock_denied_blockers_frozen(self):
        exc = LockDenied("nope", blockers=[(0,), (1,)])
        assert exc.blockers == frozenset({(0,), (1,)})
        assert isinstance(exc.blockers, frozenset)

    def test_lock_denied_default_blockers_empty(self):
        assert LockDenied("nope").blockers == frozenset()

    def test_retry_later_is_a_lock_denied(self):
        # MVTO waits raise RetryLater; runners that predate the split
        # catch LockDenied, so the subclass relationship is load-bearing
        # compatibility, not an implementation detail.
        exc = RetryLater("later", blockers=[(2,)])
        assert isinstance(exc, LockDenied)
        assert issubclass(RetryLater, LockDenied)
        assert exc.blockers == frozenset({(2,)})
        with pytest.raises(LockDenied):
            raise RetryLater("caught as the alias")

    def test_mvto_wait_raises_retry_later(self):
        from repro.adt import Counter
        from repro.kernel import get_scheme

        engine = get_scheme("mvto").build([Counter("c")])
        writer = engine.begin_top()
        writer.perform("c", Counter.increment(1))
        reader = engine.begin_top()
        with pytest.raises(RetryLater) as excinfo:
            reader.perform("c", Counter.value())
        assert excinfo.value.blockers == frozenset({writer.name})

    def test_retry_later_hint_defaults_to_none(self):
        assert RetryLater("later").retry_after_ms is None

    def test_retry_later_hint_is_attribute_only(self):
        # The hint must not change str()/args/pickle compatibility:
        # logs and wire formats built before the field keep working.
        import pickle

        plain = RetryLater("later", blockers=[(2,)])
        hinted = RetryLater("later", blockers=[(2,)], retry_after_ms=7)
        assert str(hinted) == str(plain) == "later"
        assert hinted.args == plain.args == ("later",)
        assert hinted.retry_after_ms == 7
        clone = pickle.loads(pickle.dumps(hinted))
        assert str(clone) == "later"
        assert clone.blockers == frozenset({(2,)})

    def test_mvto_wait_carries_a_hint(self):
        from repro.adt import Counter
        from repro.kernel import get_scheme

        engine = get_scheme("mvto").build([Counter("c")])
        writer = engine.begin_top()
        writer.perform("c", Counter.increment(1))
        reader = engine.begin_top()
        with pytest.raises(RetryLater) as excinfo:
            reader.perform("c", Counter.value())
        assert excinfo.value.retry_after_ms is not None
        assert excinfo.value.retry_after_ms >= 1
