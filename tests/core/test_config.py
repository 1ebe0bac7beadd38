"""Tests for the CPSJOIN configuration object."""

from __future__ import annotations

import pytest

from repro.core.config import CPSJoinConfig


class TestDefaults:
    def test_paper_final_settings(self) -> None:
        # Table III "final" column.
        config = CPSJoinConfig()
        assert config.limit == 250
        assert config.epsilon == 0.1
        assert config.embedding_size == 128
        assert config.sketch_words == 8
        assert config.sketch_false_negative_rate == 0.05
        assert config.repetitions == 10
        assert config.stopping == "adaptive"

    def test_numpy_is_the_default_backend_on_every_surface(self) -> None:
        from repro.approximate.bayeslsh import BayesLSHJoin
        from repro.approximate.minhash_lsh import MinHashLSHJoin
        from repro.backend import DEFAULT_BACKEND
        from repro.index import SimilarityIndex

        assert DEFAULT_BACKEND == "numpy"
        assert CPSJoinConfig().backend == "numpy"
        assert SimilarityIndex(0.5).backend == "numpy"
        assert MinHashLSHJoin(0.5).backend == "numpy"
        assert BayesLSHJoin(0.5).backend == "numpy"

    def test_frozen(self) -> None:
        config = CPSJoinConfig()
        with pytest.raises(Exception):
            config.limit = 10  # type: ignore[misc]


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"limit": 0},
            {"epsilon": -0.1},
            {"embedding_size": 0},
            {"sketch_words": 0},
            {"sketch_false_negative_rate": 0.0},
            {"sketch_false_negative_rate": 1.0},
            {"repetitions": 0},
            {"stopping": "nonsense"},
            {"average_method": "oracle"},
            {"max_depth": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs) -> None:
        with pytest.raises(ValueError):
            CPSJoinConfig(**kwargs)

    def test_valid_stopping_strategies(self) -> None:
        for strategy in ("adaptive", "global", "individual"):
            assert CPSJoinConfig(stopping=strategy).stopping == strategy


class TestCopies:
    def test_with_seed(self) -> None:
        config = CPSJoinConfig(limit=100)
        seeded = config.with_seed(7)
        assert seeded.seed == 7
        assert seeded.limit == 100
        assert config.seed is None

    def test_with_overrides(self) -> None:
        config = CPSJoinConfig()
        changed = config.with_overrides(epsilon=0.3, sketch_words=2)
        assert changed.epsilon == 0.3
        assert changed.sketch_words == 2
        assert config.epsilon == 0.1

    def test_with_overrides_validates(self) -> None:
        with pytest.raises(ValueError):
            CPSJoinConfig().with_overrides(limit=-5)
