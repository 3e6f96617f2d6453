"""Seeded synthetic corpus generators used as reference processes.

Three word-event processes over an integer day grid:

* ``poisson``: every word draws independent Poisson day counts at one
  shared rate; gaps between event-days are then geometric, the daily
  analogue of exponential waiting times.
* ``heterogeneous-poisson``: each word first draws its own characteristic
  time tau_c (log-uniform range or two-point mixture) and then behaves
  like a Poisson word of rate 1/tau_c.  Pooling such words fattens the
  gap tail even though every single word is memoryless.
* ``stretched-renewal``: word event times accumulate i.i.d. gaps from
  the continuous stretched-exponential law (powers of Gamma draws), then
  land in day bins.

Generation is deterministic given the spec: word i consumes only its
own substreams (events on channel 0, tau_c on channel 1), so a
degenerate mixture reproduces the plain Poisson corpus bit for bit.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from itertools import chain, repeat
from typing import Iterable, Iterator

import numpy as np

from . import stretched
from .errors import SpecValidationError
from .matrix import MAX_HORIZON, WordDayMatrix
from .seeding import EVENT_CHANNEL, MAX_INDEX, PARAM_CHANNEL, first_doubles, substreams

PROCESSES = ("poisson", "heterogeneous-poisson", "stretched-renewal")
RATE_DISTRIBUTIONS = ("log-uniform", "two-point")
MAX_TOTAL = 1e18  # expected events of one Poisson word, rate * horizon: its total stays below 2^63
MAX_EVENTS = 1e7  # expected events of one stretched-renewal word, sampled in one batch


@dataclass(frozen=True)
class SyntheticCorpusSpec:
    """Configuration of one synthetic corpus; JSON-round-trippable."""

    process: str
    horizon: int
    n_words: int
    seed: int
    rate: float | None = None                 # poisson: events per day
    rate_distribution: str | None = None      # heterogeneous: tau_c law
    tau_min: float | None = None
    tau_max: float | None = None
    tau_values: tuple[float, float] | None = None
    weights: tuple[float, float] | None = None
    a: float | None = None                    # stretched-renewal scale
    nu: float | None = None                   # stretched-renewal shape

    def validate(self) -> None:
        bad: list[str] = []
        if self.process not in PROCESSES:
            bad.append("process")
        if type(self.horizon) is not int or not 2 <= self.horizon <= MAX_HORIZON:
            bad.append("horizon")
        if type(self.n_words) is not int or not 1 <= self.n_words <= MAX_INDEX + 1:
            bad.append("n_words")
        if type(self.seed) is not int or self.seed < 0:
            bad.append("seed")
        max_rate = MAX_TOTAL / (1 if "horizon" in bad else self.horizon)
        if self.process == "poisson":
            if not (_real(self.rate) and 0 < self.rate <= max_rate):
                bad.append("rate")
        elif self.process == "heterogeneous-poisson":
            if self.rate_distribution not in RATE_DISTRIBUTIONS:
                bad.append("rate_distribution")
            elif self.rate_distribution == "log-uniform":
                if not (_real(self.tau_min) and self.tau_min >= 1 / max_rate):
                    bad.append("tau_min")
                if not _real(self.tau_max) or (_real(self.tau_min) and self.tau_max < self.tau_min):
                    bad.append("tau_max")
            else:
                if not (_pair(self.tau_values) and all(t >= 1 / max_rate for t in self.tau_values)):
                    bad.append("tau_values")
                if not (_pair(self.weights) and all(w >= 0 for w in self.weights)
                        and math.isclose(sum(self.weights), 1.0, rel_tol=1e-9)):
                    bad.append("weights")
        elif self.process == "stretched-renewal":
            if not (_real(self.a) and self.a > 0):
                bad.append("a")
            if not (_real(self.nu) and 0 < self.nu <= 2):
                bad.append("nu")
            if not bad:
                try:
                    mean_gap = stretched.moment(1, self.a, self.nu)
                except OverflowError:  # math.gamma overflows for a nu below about 0.01165
                    mean_gap = math.inf
                if not (math.isfinite(mean_gap) and self.horizon <= MAX_EVENTS * mean_gap):
                    bad += ["a", "nu"]
        if bad:
            raise SpecValidationError(f"invalid generator spec, offending fields: {bad}", fields=bad)

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_json(cls, text: str) -> "SyntheticCorpusSpec":
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as exc:  # bad JSON, an integer past int()'s digit limit, deep nesting
            raise SpecValidationError(f"spec is not valid JSON: {exc}", fields=["<document>"]) from exc
        if not isinstance(raw, dict):
            raise SpecValidationError("spec must be a JSON object", fields=["<document>"])
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise SpecValidationError(f"unknown spec fields: {unknown}", fields=unknown)
        if "tau_values" in raw and isinstance(raw["tau_values"], list):
            raw["tau_values"] = tuple(raw["tau_values"])
        if "weights" in raw and isinstance(raw["weights"], list):
            raw["weights"] = tuple(raw["weights"])
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in raw]
        if missing:
            raise SpecValidationError(f"missing spec fields: {missing}", fields=missing)
        spec = cls(**raw)
        spec.validate()
        return spec


def _real(value) -> bool:
    """A finite int or float, booleans excluded: what numeric fields hold."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _pair(value) -> bool:
    return isinstance(value, (tuple, list)) and len(value) == 2 and all(map(_real, value))


def generate(spec: SyntheticCorpusSpec) -> WordDayMatrix:
    """Build the synthetic word-day matrix described by ``spec``."""
    spec.validate()
    if spec.process == "poisson":
        return generate_poisson(spec)
    if spec.process == "heterogeneous-poisson":
        return generate_heterogeneous(spec)
    return generate_stretched_renewal(spec)


def _corpus(spec: SyntheticCorpusSpec, day_vectors: Iterable[np.ndarray]) -> WordDayMatrix:
    """Word ``w<i>`` gets the i-th day-count vector; all-zero words vanish."""
    width = max(6, len(str(spec.n_words - 1)))
    return WordDayMatrix.from_day_vectors(spec.horizon, ((f"w{i:0{width}d}", x) for i, x in enumerate(day_vectors)))


def generate_poisson(spec: SyntheticCorpusSpec) -> WordDayMatrix:
    """Independent Poisson day counts at the shared rate; empty words vanish."""
    events = substreams(spec.seed, spec.n_words, EVENT_CHANNEL)
    return _corpus(spec, (rng.poisson(spec.rate, spec.horizon) for rng in events))


def tau_c_draws(spec: SyntheticCorpusSpec) -> Iterator[float]:
    """Each word's tau_c: the spec's law on the first double of its parameter stream, a block at a time."""
    if spec.rate_distribution == "two-point":
        values, cdf = np.asarray(spec.tau_values, dtype=float), np.cumsum(spec.weights, dtype=float)
        law = lambda u: values[(cdf / cdf[-1]).searchsorted(u, side="right")]  # as Generator.choice(2, p=weights)
    elif spec.tau_min < spec.tau_max:
        lo, hi = np.log(spec.tau_min), np.log(spec.tau_max)
        law = lambda u: np.exp(lo + (hi - lo) * u)  # as Generator.uniform(lo, hi)
    else:  # a point mass draws nothing
        return repeat(float(spec.tau_min), spec.n_words)
    return chain.from_iterable(law(u).tolist() for u in first_doubles(spec.seed, spec.n_words, PARAM_CHANNEL))


def generate_heterogeneous(spec: SyntheticCorpusSpec) -> WordDayMatrix:
    """Per-word characteristic time, then Poisson day counts at 1/tau_c.

    tau_c draws use the parameter channel, so a point-mass tau_c law
    leaves the event streams identical to :func:`generate_poisson` at
    rate 1/tau_c under the same seed.
    """
    events = substreams(spec.seed, spec.n_words, EVENT_CHANNEL)
    return _corpus(spec, (rng.poisson(1.0 / tau_c, spec.horizon) for tau_c, rng in zip(tau_c_draws(spec), events)))


def generate_stretched_renewal(spec: SyntheticCorpusSpec) -> WordDayMatrix:
    """Renewal events with stretched-exponential gaps, floored to days.

    Gaps are powers of Gamma draws from the word's event stream; events
    past the horizon are discarded.  Several events in one day simply
    raise that day's count; downstream gap analysis sees one event-day.
    """
    mean_gap = stretched.moment(1, spec.a, spec.nu)
    batch = max(16, int(spec.horizon / mean_gap * 1.25) + 8)

    @np.errstate(over="ignore")  # a gap that overflows is inf, which lands past the horizon
    def day_counts(rng: np.random.Generator) -> np.ndarray:
        counts = np.zeros(spec.horizon, dtype=np.int64)
        t = np.zeros(1)
        while t[-1] < spec.horizon:  # cumsum adds in sequence, like a running total
            t = np.cumsum(np.concatenate([t[-1:], stretched.sample(rng, batch, spec.a, spec.nu)]))[1:]
            counts += np.bincount(t[t < spec.horizon].astype(np.int64), minlength=spec.horizon)
        return counts

    return _corpus(spec, map(day_counts, substreams(spec.seed, spec.n_words, EVENT_CHANNEL)))
