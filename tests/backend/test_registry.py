"""Backend selection: one resolution chain, loud rejection, shared fleets.

``--backend`` resolves exactly like every other execution knob —
explicit argument > process default > environment > built-in fallback —
and the fallback is worker-count aware so plain ``--jobs 4`` lands on
the warm fleet without further flags.
"""

import pytest

from repro.backend import (
    BACKEND_NAMES,
    get_backend,
    make_backend,
    resolve_backend_name,
    set_default_backend,
    shared_backends,
    shutdown_backends,
    warm_available,
)
from repro.backend.inline import InlineBackend
from repro.backend.warm import WarmBackend
from repro.errors import ConfigurationError
from repro.exec import set_default_jobs

needs_fork = pytest.mark.skipif(
    not warm_available(), reason="warm backend needs the fork start method"
)


@pytest.fixture(autouse=True)
def clean_backend_state(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    set_default_backend(None)
    set_default_jobs(None)
    yield
    set_default_backend(None)
    set_default_jobs(None)
    shutdown_backends(grace=1.0)


class TestResolutionChain:
    def test_explicit_wins_over_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "warm")
        set_default_backend("warm")
        assert resolve_backend_name("inline") == "inline"

    def test_default_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "warm")
        set_default_backend("inline")
        assert resolve_backend_name() == "inline"

    def test_env_beats_jobs_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "inline")
        assert resolve_backend_name(jobs=4) == "inline"

    def test_single_job_falls_back_to_inline(self):
        assert resolve_backend_name() == "inline"
        assert resolve_backend_name(jobs=1) == "inline"

    def test_multi_job_falls_back_to_warm(self):
        expected = "warm" if warm_available() else "inline"
        assert resolve_backend_name(jobs=4) == expected

    def test_names_normalised(self):
        assert resolve_backend_name("  WARM ") == "warm"

    @pytest.mark.parametrize("bogus", ["bogus", "threads", ""])
    def test_unknown_explicit_name_rejected(self, bogus):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            resolve_backend_name(bogus)

    def test_rejection_lists_the_known_names(self):
        with pytest.raises(
            ConfigurationError,
            match=r"unknown backend 'bogus'; known: inline, warm",
        ):
            resolve_backend_name("bogus")

    def test_unknown_env_name_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "turbo")
        with pytest.raises(ConfigurationError, match="unknown backend"):
            resolve_backend_name()

    def test_set_default_validates_eagerly(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            set_default_backend("bogus")


class TestInstances:
    def test_make_backend_returns_the_registered_classes(self):
        assert BACKEND_NAMES == ("inline", "warm")
        assert isinstance(make_backend("inline"), InlineBackend)
        if warm_available():
            warm = make_backend("warm", workers=2)
            assert isinstance(warm, WarmBackend)
            warm.shutdown(grace=1.0)

    @needs_fork
    def test_get_backend_shares_by_name_and_workers(self):
        # Workers spawn on first use, so sharing costs no processes here.
        a = get_backend("warm", jobs=2)
        b = get_backend("warm", jobs=2)
        c = get_backend("warm", jobs=3)
        assert a is b
        assert a is not c
        assert a in shared_backends() and c in shared_backends()

    def test_inline_shares_one_instance_regardless_of_jobs(self):
        # Worker count is meaningless in-process; don't fragment the key.
        assert get_backend("inline", jobs=4) is get_backend("inline", jobs=1)

    def test_shutdown_backends_empties_the_registry(self):
        get_backend("inline")
        assert shared_backends()
        shutdown_backends(grace=1.0)
        assert shared_backends() == []
