"""Operations on probability values (Section III-E).

Threshold queries — ``σ_{Pr(A) > p}(T)`` — filter tuples by the probability
mass they carry over an attribute set, rather than by the attribute values
themselves.  Because these predicates inspect the probabilistic model
directly (not a possible world), possible worlds semantics does not apply;
histories are simply copied over, as in selection Case 1.

:func:`tuple_probability` is also the general "does this tuple exist"
computation: ``Pr(all uncertain attributes)`` of a tuple is its existence
probability under the closed-world partial-pdf reading.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Optional, Sequence

from ..errors import QueryError
from .model import (
    DEFAULT_CONFIG,
    ModelConfig,
    ProbabilisticRelation,
    ProbabilisticTuple,
)
from .operations import cached_mass, cached_masses, product

__all__ = [
    "probability_of",
    "batch_probability_of",
    "columnar_probability_of",
    "tuple_probability",
    "threshold_select",
    "existence_probability",
]

_OPS: dict = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "=": lambda a, b: abs(a - b) < 1e-12,
}


def probability_of(
    t: ProbabilisticTuple,
    store,
    attrs: Optional[Iterable[str]] = None,
    config: ModelConfig = DEFAULT_CONFIG,
) -> float:
    """``Pr(A)`` for tuple ``t`` given a history store (no schema checks).

    Low-level worker shared by the model API and the engine executor.
    """
    if attrs is None:
        targets = list(t.pdfs.keys())
    else:
        wanted = set(attrs)
        targets = [dep for dep in t.pdfs if dep & wanted]

    inputs = []
    for dep in targets:
        pdf = t.pdfs[dep]
        if pdf is None:
            continue  # NULL pdf: the tuple exists with certainty
        inputs.append((pdf, t.lineage.get(dep, frozenset())))
    if not inputs:
        return 1.0
    joint, _ = product(inputs, store, config)
    return min(cached_mass(joint), 1.0)


def batch_probability_of(
    tuples: Sequence[ProbabilisticTuple],
    store,
    attrs: Optional[Iterable[str]] = None,
    config: ModelConfig = DEFAULT_CONFIG,
) -> list:
    """``Pr(A)`` for a batch of tuples; element-wise identical to
    :func:`probability_of`.

    Tuples whose target reduces to a single pdf (the common case — the
    ``product`` primitive is then the identity) have their masses computed
    in one vectorized kernel sweep through the pdf-op cache; tuples needing
    a genuine history-aware product fall back to the scalar path.
    """
    wanted = set(attrs) if attrs is not None else None
    out: list = [0.0] * len(tuples)
    single_idx = []
    single_pdfs = []
    for i, t in enumerate(tuples):
        if wanted is None:
            targets = list(t.pdfs.keys())
        else:
            targets = [dep for dep in t.pdfs if dep & wanted]
        inputs = [t.pdfs[dep] for dep in targets if t.pdfs[dep] is not None]
        if not inputs:
            out[i] = 1.0
        elif len(inputs) == 1:
            single_idx.append(i)
            single_pdfs.append(inputs[0])
        else:
            out[i] = probability_of(t, store, attrs, config)
    if single_idx:
        masses = cached_masses(single_pdfs)
        for i, m in zip(single_idx, masses):
            out[i] = min(m, 1.0)
    return out


def columnar_probability_of(
    batch,
    store,
    attrs: Optional[Iterable[str]] = None,
    config: ModelConfig = DEFAULT_CONFIG,
) -> list:
    """:func:`batch_probability_of` over a columnar batch.

    Applies when the batch's tuples carry exactly one dependency set (the
    common single-uncertain-column shape): NULL rows and raw symbolic-family
    rows resolve to probability 1.0 straight off the column's row vectors —
    a raw family's ``mass()`` is exactly 1.0, so ``min(mass, 1.0)`` needs no
    evaluation at all — and only the leftover rows (floored pdfs, discrete
    materializations, joints) pay the per-tuple target resolution of the
    reference path.  Any shape the column view cannot express falls back to
    :func:`batch_probability_of` wholesale; results are element-wise
    identical either way.
    """
    tuples = batch.tuples
    if not tuples:
        return []
    deps = list(tuples[0].pdfs.keys())
    if len(deps) != 1:
        return batch_probability_of(tuples, store, attrs, config)
    dep = deps[0]
    if attrs is not None and not (dep & set(attrs)):
        # no target dependency sets: every tuple exists with certainty
        return [1.0] * len(tuples)
    col = batch.attr_column(dep)
    if col is None:
        return batch_probability_of(tuples, store, attrs, config)

    out: list = [1.0] * len(tuples)
    if len(col.other_rows):
        other = col.other_rows.tolist()
        sub = batch_probability_of([tuples[i] for i in other], store, attrs, config)
        for i, p in zip(other, sub):
            out[i] = p
    return out


def tuple_probability(
    rel: ProbabilisticRelation,
    t: ProbabilisticTuple,
    attrs: Optional[Iterable[str]] = None,
    config: ModelConfig = DEFAULT_CONFIG,
) -> float:
    """``Pr(A)`` for tuple ``t``: the joint mass over the attribute set A.

    ``attrs`` defaults to every uncertain attribute of the tuple.  The
    computation builds the history-aware joint of all dependency sets that
    intersect A, so shared ancestors are counted once.  Certain attributes
    contribute probability 1; a NULL pdf contributes 1 as well (the tuple
    exists; only its values are unknown).
    """
    if attrs is not None:
        wanted = set(attrs)
        unknown = wanted - (set(rel.schema.visible_attrs) | rel.schema.phantom_attrs)
        if unknown:
            raise QueryError(f"unknown attributes in Pr(): {sorted(unknown)}")
    return probability_of(t, rel.store, attrs, config)


def existence_probability(
    rel: ProbabilisticRelation,
    t: ProbabilisticTuple,
    config: ModelConfig = DEFAULT_CONFIG,
) -> float:
    """The probability that tuple ``t`` exists at all."""
    return tuple_probability(rel, t, attrs=None, config=config)


def threshold_select(
    rel: ProbabilisticRelation,
    attrs: Optional[Sequence[str]],
    op: str,
    threshold: float,
    config: ModelConfig = DEFAULT_CONFIG,
) -> ProbabilisticRelation:
    """``σ_{Pr(attrs) op threshold}(rel)`` (Section III-E).

    ``attrs=None`` thresholds on the full tuple existence probability.
    Histories and pdfs of qualifying tuples are copied over unchanged.
    """
    if op not in _OPS:
        raise QueryError(f"unknown threshold operator {op!r}; use one of {sorted(_OPS)}")
    compare: Callable[[float, float], bool] = _OPS[op]
    out = rel.derived(rel.schema)
    for t in rel.tuples:
        p = tuple_probability(rel, t, attrs, config)
        if compare(p, threshold):
            out.add_tuple(ProbabilisticTuple(t.tuple_id, t.certain, t.pdfs, t.lineage))
    return out
