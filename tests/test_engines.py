"""The unified engine stack: registry, wrappers, one result type.

Covers the spec grammar and option aliasing, wrapper geometry
forwarding (including nested stacks), and — the heart
of it — an engine-equivalence matrix: every registered engine must find the same
planted seed at the same distance, and a zero time budget must yield
``timed_out=True`` uniformly when the target is absent.
"""

import numpy as np
import pytest

from repro._bitutils import flip_bits
from repro.engines import (
    DEFAULT_BATCH_SIZE,
    EngineConfig,
    EngineWrapper,
    build_engine,
    describe_engine,
    engine_entries,
    engine_names,
    engine_target,
    register_engine,
)
from repro.engines.registry import get_entry

RNG = np.random.default_rng(20260805)
BASE_SEED = RNG.bytes(32)

#: The engine with a single caller is not a registry row; a dotted spec
#: names its class (the matrix id keeps its short name).
ORIGINAL_SPEC = "repro.runtime.original_batch.BatchOriginalRBCSearch:aes-128,bs=4096"

#: One spec per engine family — every row must behave identically on
#: the protocol surface. SHA-1 keeps the matrix fast.
HASH_ENGINE_SPECS = [
    "batch:sha1,bs=4096",
    "batch:sha1,bs=4096,it=chase",
    "batch:sha1,bs=4096,cache=yes",
    "parallel:sha1,w=2,bs=4096",
    "pool:sha1,w=2,bs=4096",
    "sched:sha1,bs=4096",
    # The multi-member row: two devices behind one dispatcher, as served.
    "fleet:host,host,hash=sha1,bs=4096",
    "gpu-model:sha1,bs=4096",
]
ALL_ENGINE_SPECS = HASH_ENGINE_SPECS + [
    pytest.param(ORIGINAL_SPEC, id="original:aes-128,bs=4096")
]


def nonce_bound_batch(hash_name: str = "sha1", batch_size: int = 4096):
    """The session layer's search: its adapter over ``batch:``, by dotted spec."""
    from repro.net.session import _NonceBindingEngine

    inner = build_engine("batch", hash_name=hash_name, batch_size=batch_size)
    return _NonceBindingEngine(inner, hash_name, b"\x01" * 16)


NONCE_BOUND_SPEC = f"{__name__}.nonce_bound_batch:sha1,bs=4096"


class TestSpecGrammar:
    def test_builtins_registered(self):
        assert set(engine_names()) >= {
            "batch", "parallel", "pool", "sched", "fleet",
            "gpu-model", "apu-model", "cpu-model",
        }
        # The single-caller engine is named by dotted spec, not registered.
        assert "original" not in engine_names()

    def test_parse_round_trip(self):
        spec = "fleet:host,host,hash=sha1,bs=4096"
        assert EngineConfig.parse(spec).spec_string() == spec

    def test_positional_and_aliased_options(self):
        engine = build_engine("batch:sha1,bs=1024")
        assert engine.hash_name == "sha1"
        assert engine.batch_size == 1024

    def test_per_engine_alias(self):
        assert build_engine("parallel:sha1,w=2").workers == 2
        with build_engine("pool:sha1,w=1") as pool:
            assert pool.workers == 1

    def test_keyword_overrides_accept_aliases(self):
        engine = build_engine("batch", hash="sha1", bs=2048)
        assert engine.hash_name == "sha1"
        assert engine.batch_size == 2048

    def test_bool_coercion(self):
        assert build_engine("batch:sha1,fixed_padding=no").fixed_padding is False
        assert build_engine("batch:sha1,fixed_padding=yes").fixed_padding is True

    def test_dotted_spec_bypasses_registry(self):
        engine = build_engine(
            "repro.runtime.executor.BatchSearchExecutor:sha1,bs=512"
        )
        assert engine.batch_size == 512
        assert engine.hash_name == "sha1"

    def test_dispatcher_rows_declare_no_parameter_of_their_own(self):
        """``fleet`` is the class; ``sched`` / ``pool`` / ``parallel`` read
        their options off it, so a new engine option is declared once."""
        import inspect

        from repro.fleet.engine import FleetSearchEngine

        options = {
            name: parameter.default
            for name, parameter in inspect.signature(
                FleetSearchEngine
            ).parameters.items()
            if parameter.kind is inspect.Parameter.KEYWORD_ONLY
        }
        for row, batch_size in (
            ("fleet", 8192), ("sched", 16384), ("pool", 16384), ("parallel", 8192)
        ):
            schema = {name: default for name, default, _type in get_entry(row).schema}
            assert schema == {
                name: repr(batch_size if name == "batch_size" else default)
                for name, default in options.items()
            }, row
        assert [row[0] for row in get_entry("pool").schema][:3] == [
            "hash_name", "workers", "batch_size",
        ]

    def test_unknown_engine_lists_choices(self):
        with pytest.raises(KeyError, match="registered:"):
            build_engine("definitely-not-an-engine")

    def test_unknown_option_rejected(self):
        for spec in ("batch:sha1,warp_factor=9", "fleet:host,hedge_factor=4"):
            with pytest.raises(ValueError, match="no option"):
                build_engine(spec)

    def test_duplicate_option_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            build_engine("batch:sha1,hash=sha256")

    def test_positional_after_keyword_rejected(self):
        with pytest.raises(ValueError, match="positional"):
            EngineConfig.parse("batch:bs=4096,sha1")

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            build_engine("")

    def test_duplicate_registration_rejected(self):
        @register_engine("test-unique-engine", description="test")
        def _factory():  # pragma: no cover - never built
            raise AssertionError

        with pytest.raises(ValueError, match="already registered"):
            register_engine("test-unique-engine", description="dup")(_factory)

    def test_schema_rows_present(self):
        entry = get_entry("batch")
        params = [row[0] for row in entry.schema]
        assert "hash_name" in params and "batch_size" in params
        assert all(len(row) == 3 for row in entry.schema)

    def test_entries_sorted_and_described(self):
        entries = engine_entries()
        assert [e.name for e in entries] == sorted(e.name for e in entries)
        assert all(e.description for e in entries)


class TestEquivalenceMatrix:
    """Same protocol answer from every engine, per Algorithm 1."""

    @pytest.mark.parametrize("spec", ALL_ENGINE_SPECS)
    @pytest.mark.parametrize("distance", [0, 1, 2])
    def test_finds_planted_seed(self, spec, distance):
        engine = build_engine(spec)
        positions = sorted(
            int(p) for p in RNG.choice(256, size=distance, replace=False)
        )
        client_seed = flip_bits(BASE_SEED, positions)
        target = engine_target(engine, client_seed)
        result = engine.search(BASE_SEED, target, 2)
        assert result.found is True
        assert result.distance == distance
        assert result.seed == client_seed
        assert result.timed_out is False
        assert result.seeds_hashed >= 1
        assert bool(result) is True

    @pytest.mark.parametrize("spec", ALL_ENGINE_SPECS)
    def test_zero_budget_times_out_uniformly(self, spec):
        engine = build_engine(spec)
        absent_target = engine_target(engine, RNG.bytes(32))
        result = engine.search(BASE_SEED, absent_target, 2, time_budget=0)
        assert result.found is False
        assert result.timed_out is True
        assert result.seed is None and result.distance is None
        assert bool(result) is False

    @pytest.mark.parametrize(
        "spec",
        ALL_ENGINE_SPECS
        + [pytest.param(NONCE_BOUND_SPEC, id="nonce-bound[sha1](batch:sha1,bs=4096)")],
    )
    def test_results_are_tagged_and_shelled(self, spec):
        engine = build_engine(spec)
        client_seed = flip_bits(BASE_SEED, [5])
        result = engine.search(
            BASE_SEED, engine_target(engine, client_seed), 1
        )
        assert result.engine is not None and result.engine != ""
        distances = [shell.distance for shell in result.shells]
        assert 1 in distances
        assert sum(s.seeds_hashed for s in result.shells) == result.seeds_hashed


class TestWrapperGeometry:
    def test_modeled_engine_forwards_geometry(self):
        modeled = build_engine("gpu-model:sha1,bs=1234")
        assert modeled.batch_size == 1234
        assert modeled.hash_name == "sha1"
        assert modeled.unwrap() is modeled.inner
        assert "modeled[" in modeled.describe()
        assert "batch:sha1,bs=1234" in modeled.describe()

    def test_nested_wrappers_see_innermost_geometry(self):
        from repro.net.session import _NonceBindingEngine

        modeled = build_engine("gpu-model:sha1,bs=777")
        stack = _NonceBindingEngine(modeled, "sha1", b"\x01" * 16)
        assert stack.batch_size == 777
        assert stack.hash_name == "sha1"
        assert stack.unwrap() is modeled.inner
        assert stack.describe().startswith("nonce-bound[sha1](modeled[")
        assert "batch:sha1,bs=777" in stack.describe()

    def test_default_batch_size_fallback(self):
        class _Bare:
            def search(self, *a, **k):  # pragma: no cover
                raise AssertionError

        assert EngineWrapper(_Bare()).batch_size == DEFAULT_BATCH_SIZE

    def test_default_search_delegates(self):
        inner = build_engine("batch:sha1,bs=4096")
        wrapped = EngineWrapper(inner)
        client_seed = flip_bits(BASE_SEED, [9])
        result = wrapped.search(
            BASE_SEED, engine_target(wrapped, client_seed), 1
        )
        assert result.found and result.seed == client_seed

    def test_throughput_probe_delegates(self):
        wrapped = EngineWrapper(build_engine("batch:sha1,bs=4096"))
        assert wrapped.throughput_probe(2000) > 0

    def test_describe_engine_falls_back_to_type_name(self):
        class _Anon:
            pass

        assert describe_engine(_Anon()) == "_Anon"

    def test_nonce_binding_engine_is_a_wrapper(self):
        from repro.net.session import _NonceBindingEngine

        inner = build_engine("batch:sha3-256,bs=512")
        bound = _NonceBindingEngine(inner, "sha3-256", b"\x01" * 16)
        assert isinstance(bound, EngineWrapper)
        assert bound.batch_size == 512
        client_seed = flip_bits(BASE_SEED, [11])
        from repro.hashes.registry import get_hash

        target = get_hash("sha3-256").scalar(client_seed + b"\x01" * 16)
        result = bound.search(BASE_SEED, target, 1)
        assert result.found and result.seed == client_seed
        assert result.engine is not None and "nonce-bound" in result.engine


class TestSummarizeSearchResults:
    def test_aggregates_unified_results(self):
        from repro.analysis.metrics import summarize_search_results

        engine = build_engine("batch:sha1,bs=4096")
        results = []
        for distance in (0, 1):
            planted = flip_bits(BASE_SEED, list(range(distance)))
            results.append(
                engine.search(BASE_SEED, engine_target(engine, planted), 1)
            )
        summary = summarize_search_results(results)
        assert summary["searches"] == 2
        assert summary["found"] == 2
        assert summary["found_distances"] == {0: 1, 1: 1}
        assert summary["seeds_hashed"] == sum(r.seeds_hashed for r in results)
        assert summary["seeds_by_distance"][0] >= 2
        assert set(summary["engines"]) == {"batch:sha1,bs=4096"}
