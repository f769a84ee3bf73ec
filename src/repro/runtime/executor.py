"""Single-process vectorized RBC search executor.

This is Algorithm 1 with NumPy lanes standing in for GPU threads: at each
Hamming distance the executor pulls a batch of combinations, XORs the
resulting masks into the base seed, hashes the whole batch with one kernel
call, and compares all digests against the client's digest at once.

Two combination sources are supported, mirroring the paper's Table 4:

* ``"unrank"`` (default) — vectorized Algorithm-515-style unranking;
  batch generation is itself vectorized, so this is the fast path.
* any :class:`~repro.combinatorics.iterator_base.CombinationIterator`
  name (``"chase"``, ``"gosper"``, ``"lex"``, ``"unrank-scalar"``) —
  combinations are produced by stepping the scalar iterator; used to
  compare iterator costs on real hardware at reduced scale.

The search body is :meth:`BatchSearchExecutor.search` — the one
vectorized Algorithm 1 loop on the host. What it applies to a candidate
is the :class:`OneWayFunction` the executor holds as ``algo``: a
registered hash for RBC-SALTED, ``H(seed ‖ nonce)`` for a secure session
(:mod:`repro.net.session`), one key generation for the original-RBC
baseline (:mod:`repro.runtime.original_batch`). With ``cache=True`` the
executor reads XOR masks from the process-wide
:mod:`~repro.runtime.maskplan` cache instead of re-unranking every
search, cutting steady-state per-candidate work to XOR + hash + compare.
The dispatcher engines (``sched:`` / ``fleet:`` / ``pool:`` /
``parallel:``) do not read these masks: they make candidates from rank
ranges with :func:`~repro.runtime.maskplan.candidates`, so this engine
stays their independent reference.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from typing import Protocol

import numpy as np

from repro._bitutils import (
    SEED_BITS,
    positions_to_mask_words,
    seed_to_words,
    words_to_seed,
)
from repro.combinatorics.binomial import binomial
from repro.combinatorics.ranking import unrank_lexicographic_batch
from repro.engines.result import SearchResult, ShellStats
from repro.hashes.registry import get_hash
from repro.runtime.maskplan import (
    ITERATOR_CHOICES,
    MaskPlanCache,
    combination_batches,
    global_plan_cache,
)

# SearchResult / ShellStats live in repro.engines.result now; re-exported
# here because half the codebase historically imported them from this
# module.
__all__ = [
    "SearchResult",
    "ShellStats",
    "OneWayFunction",
    "BatchSearchExecutor",
    "ITERATOR_CHOICES",
]


class OneWayFunction(Protocol):
    """What the search applies to a candidate — the loop's one parameter.

    :class:`~repro.hashes.registry.HashAlgorithm` is the registered
    implementation; the session layer and the original-RBC baseline
    supply their own.
    """

    name: str

    def hash_seed(self, seed: bytes) -> bytes:
        """Public value of one 32-byte seed."""
        ...

    def hash_seeds_batch(
        self, words: np.ndarray, fixed_padding: bool = True
    ) -> np.ndarray:
        """Public values of ``(N, 4)`` uint64 seed words, one row each."""
        ...

    def digest_to_words(self, public_value: bytes) -> np.ndarray:
        """One public value in the row form ``hash_seeds_batch`` returns;
        raises ``ValueError`` on a value of the wrong length."""
        ...


class BatchSearchExecutor:
    """Vectorized single-process search engine.

    Parameters
    ----------
    hash_name:
        Registered hash algorithm ("sha1", "sha256", "sha3-256"), or the
        :class:`OneWayFunction` to search with.
    batch_size:
        Seeds hashed per kernel call — the lane width. This plays the
        role of the GPU's total thread count times seeds-per-check.
    iterator:
        Combination source; see module docstring.
    fixed_padding:
        Use the fixed-pad fast path (paper Section 3.2.2).
    cache:
        Read XOR masks from the process-wide mask-plan cache instead of
        re-unranking per search (spec option ``cache=yes``). Results are
        byte-identical either way; only the per-search cost changes.
    warm:
        Prebuild full-range plans for distances ``1..warm`` at
        construction time (spec option ``warm=N``; implies ``cache``),
        so even the first search runs on the amortized path.
    plan_cache:
        Cache instance to use; defaults to the global process-wide one.
    """

    def __init__(
        self,
        hash_name: str | OneWayFunction = "sha3-256",
        batch_size: int = 16384,
        iterator: str = "unrank",
        fixed_padding: bool = True,
        cache: bool = False,
        warm: int = 0,
        plan_cache: MaskPlanCache | None = None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if iterator not in ITERATOR_CHOICES:
            raise ValueError(
                f"unknown iterator {iterator!r}; choices: {ITERATOR_CHOICES}"
            )
        if warm < 0:
            raise ValueError("warm must be >= 0")
        self.algo: OneWayFunction = (
            get_hash(hash_name) if isinstance(hash_name, str) else hash_name
        )
        self.batch_size = batch_size
        self.iterator = iterator
        self.fixed_padding = fixed_padding
        self.cache = cache or warm > 0 or plan_cache is not None
        self.warm = warm
        self._plan_cache: MaskPlanCache | None = None
        if self.cache:
            self._plan_cache = (
                plan_cache if plan_cache is not None else global_plan_cache()
            )
            for distance in range(1, warm + 1):
                self._plan_cache.get_or_build(
                    distance, 0, binomial(SEED_BITS, distance),
                    self.batch_size, self.iterator,
                )

    @property
    def hash_name(self) -> str:
        """Canonical name of the hash this engine searches with."""
        return self.algo.name

    @property
    def plan_cache(self) -> MaskPlanCache | None:
        """The mask-plan cache this engine reads, if caching is enabled."""
        return self._plan_cache

    def describe(self) -> str:
        """Canonical spec string for this engine's configuration."""
        spec = f"batch:{self.algo.name},bs={self.batch_size}"
        if self.iterator != "unrank":
            spec += f",it={self.iterator}"
        if self.cache:
            spec += ",cache=yes"
        if self.warm:
            spec += f",warm={self.warm}"
        return spec

    # -- mask batches --------------------------------------------------

    def mask_batches(
        self, distance: int, lo: int, hi: int
    ) -> Iterator[np.ndarray]:
        """Yield ``(N, 4)`` mask-word batches covering ranks ``[lo, hi)``.

        The search body's mask pipeline: views of the cached plan when
        caching is enabled (and the slice fits the cache), streaming
        generation otherwise. The cache counts every look-up
        (:meth:`~repro.runtime.maskplan.MaskPlanCache.stats`).
        """
        if self._plan_cache is not None:
            plan, _hit = self._plan_cache.get_or_build(
                distance, lo, hi, self.batch_size, self.iterator
            )
            if plan is not None:
                yield from plan.batches()
                return
        for positions in combination_batches(
            distance, lo, hi, self.batch_size, self.iterator
        ):
            yield positions_to_mask_words(positions)

    # -- search ---------------------------------------------------------

    def search(
        self,
        base_seed: bytes,
        target_digest: bytes,
        max_distance: int,
        time_budget: float | None = None,
    ) -> SearchResult:
        """Run Algorithm 1: search Hamming distances 0..max_distance.

        ``time_budget`` enforces the protocol's T threshold; on expiry
        the result has ``timed_out=True``.
        """
        start_time = time.perf_counter()
        target_words = self.algo.digest_to_words(target_digest)
        base_words = seed_to_words(base_seed)
        shells: list[ShellStats] = []

        def shell_done(distance: int, hashed: int, since: float) -> None:
            shells.append(
                ShellStats(distance, hashed, time.perf_counter() - since)
            )

        def result(
            seed: bytes | None = None,
            distance: int | None = None,
            timed_out: bool = False,
        ) -> SearchResult:
            return SearchResult(
                found=seed is not None,
                seed=seed,
                distance=distance,
                seeds_hashed=sum(shell.seeds_hashed for shell in shells),
                elapsed_seconds=time.perf_counter() - start_time,
                timed_out=timed_out,
                shells=tuple(shells),
                engine=self.describe(),
            )

        # Distance 0: S_init itself (Algorithm 1 l.4-8).
        digest0 = self.algo.hash_seed(base_seed)
        shell_done(0, 1, start_time)
        if digest0 == target_digest:
            return result(base_seed, 0)

        for distance in range(1, max_distance + 1):
            shell_start = time.perf_counter()
            shell_hashed = 0
            for masks in self.mask_batches(
                distance, 0, binomial(SEED_BITS, distance)
            ):
                candidate_words = base_words[None, :] ^ masks
                digests = self.algo.hash_seeds_batch(
                    candidate_words, fixed_padding=self.fixed_padding
                )
                shell_hashed += candidate_words.shape[0]
                matches = np.flatnonzero((digests == target_words).all(axis=1))
                if matches.size:
                    shell_done(distance, shell_hashed, shell_start)
                    return result(
                        words_to_seed(candidate_words[int(matches[0])]), distance
                    )
                if (
                    time_budget is not None
                    and time.perf_counter() - start_time > time_budget
                ):
                    shell_done(distance, shell_hashed, shell_start)
                    return result(timed_out=True)
            shell_done(distance, shell_hashed, shell_start)
        return result()

    def throughput_probe(
        self,
        num_seeds: int = 50000,
        rng_seed: int = 0,
        breakdown: bool = False,
        distance: int = 3,
    ) -> float | dict[str, float]:
        """Measured hashes/second of the from-spec batch kernel on this host.

        Feeds the device-model calibration cross-checks: the paper's
        throughput constants are scaled, but the *relative* costs between
        hash algorithms come out of probes like this one — so it times
        ``algo.batch``, the reproduced algorithm, not the native digest
        ``search`` serves with.

        With ``breakdown=True`` the probe times each pipeline stage
        separately — unrank, mask build, hash, compare — and returns a
        dict of per-stage seeds/second plus the combined ``total``. The
        stage rates attribute the amortization win: unrank + mask are
        exactly what the plan cache removes from the steady-state path.
        """
        rng = np.random.default_rng(rng_seed)
        words = rng.integers(0, 1 << 63, size=(num_seeds, 4), dtype=np.int64)
        words = words.astype(np.uint64)
        if not breakdown:
            start = time.perf_counter()
            self.algo.batch(words, fixed_padding=self.fixed_padding)
            elapsed = time.perf_counter() - start
            return num_seeds / elapsed

        count = min(num_seeds, binomial(SEED_BITS, distance))
        ranks = np.arange(count, dtype=np.uint64)
        timings: dict[str, float] = {}

        start = time.perf_counter()
        positions = unrank_lexicographic_batch(SEED_BITS, distance, ranks)
        timings["unrank"] = time.perf_counter() - start

        start = time.perf_counter()
        masks = positions_to_mask_words(positions)
        timings["mask"] = time.perf_counter() - start

        base_words = words[0]
        start = time.perf_counter()
        candidate_words = base_words[None, :] ^ masks
        digests = self.algo.batch(
            candidate_words, fixed_padding=self.fixed_padding
        )
        timings["hash"] = time.perf_counter() - start

        target_words = digests[0].copy()
        start = time.perf_counter()
        np.flatnonzero((digests == target_words).all(axis=1))
        timings["compare"] = time.perf_counter() - start

        tiny = 1e-12
        rates = {
            stage: count / max(elapsed, tiny)
            for stage, elapsed in timings.items()
        }
        rates["total"] = count / max(sum(timings.values()), tiny)
        return rates
