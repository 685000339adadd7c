"""Relational schema with discrete, finite, data-independent attribute domains.

The paper (Section 2) models data as a single-table relation
``R(A_1, ..., A_d)`` where every attribute ``A_i`` has a discrete, finite and
*data-independent* domain ``dom(A_i)``.  This module implements that model:
an :class:`Attribute` is a named, ordered, finite domain of values, and a
:class:`Schema` is an ordered collection of attributes.

Values are stored in :class:`~repro.dataset.table.Dataset` columns as integer
*codes* (indices into the attribute's domain), which makes histogram
computation a ``numpy.bincount`` and keeps the whole pipeline vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence


class SchemaError(ValueError):
    """Raised for malformed schemas or values outside an attribute domain."""


@dataclass(frozen=True)
class Attribute:
    """A named attribute with a finite, ordered domain of values.

    Parameters
    ----------
    name:
        Attribute name, unique within a schema.
    domain:
        The ordered tuple of admissible values.  Order matters for display
        (histograms are rendered in domain order) but not for semantics.
    """

    name: str
    domain: tuple[str, ...]
    _index: Mapping[str, int] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if len(self.domain) == 0:
            raise SchemaError(f"attribute {self.name!r} must have a non-empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise SchemaError(f"attribute {self.name!r} has duplicate domain values")
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(self.domain)})

    @property
    def domain_size(self) -> int:
        """Number of values in ``dom(A)``."""
        return len(self.domain)

    def code_of(self, value: str) -> int:
        """Return the integer code of ``value``; raise if outside the domain."""
        try:
            return self._index[value]
        except KeyError:
            raise SchemaError(
                f"value {value!r} is not in dom({self.name}) "
                f"(domain size {self.domain_size})"
            ) from None

    def value_of(self, code: int) -> str:
        """Return the domain value for an integer ``code``."""
        if not 0 <= code < self.domain_size:
            raise SchemaError(f"code {code} out of range for attribute {self.name!r}")
        return self.domain[code]

    def __len__(self) -> int:
        return self.domain_size


@dataclass(frozen=True)
class Schema:
    """An ordered collection of :class:`Attribute` with unique names."""

    attributes: tuple[Attribute, ...]
    #: Attribute names in schema order.
    names: tuple[str, ...] = field(init=False, repr=False, compare=False, hash=False)
    _by_name: Mapping[str, Attribute] = field(
        init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        names = tuple(a.name for a in self.attributes)
        if len(set(names)) != len(names):
            raise SchemaError("schema attribute names must be unique")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_by_name", {a.name: a for a in self.attributes})

    @classmethod
    def from_domains(cls, domains: Mapping[str, Sequence[str]]) -> "Schema":
        """Build a schema from a ``{name: domain}`` mapping (insertion order)."""
        return cls(tuple(Attribute(n, tuple(d)) for n, d in domains.items()))

    @property
    def width(self) -> int:
        """Number of attributes ``d``."""
        return len(self.attributes)

    def attribute(self, name: str) -> Attribute:
        """Look an attribute up by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"no attribute named {name!r} in schema") from None

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __len__(self) -> int:
        return self.width

    def domain_sizes(self) -> dict[str, int]:
        """Return ``{name: |dom(A)|}`` for every attribute."""
        return {a.name: a.domain_size for a in self.attributes}

    def project(self, names: Iterable[str]) -> "Schema":
        """Return a new schema restricted to ``names`` (kept in given order)."""
        return Schema(tuple(self.attribute(n) for n in names))

    def with_attributes(self, extra: Iterable[Attribute]) -> "Schema":
        """Return a new schema with ``extra`` attributes appended."""
        return Schema(self.attributes + tuple(extra))


def binned_domain(
    edges: Sequence[float], *, closed_last: bool = False, fmt: str = "g"
) -> tuple[str, ...]:
    """Render interval labels ``[e0, e1), [e1, e2), ...`` for binned numeric attributes.

    The paper bins numeric attributes into interval-labelled categorical
    domains (e.g. ``lab_proc`` in Figure 2a).  ``edges`` are the ``m + 1``
    boundaries of ``m`` bins; the final bin is ``[e_{m-1}, inf)`` unless
    ``closed_last`` is set, in which case it is ``[e_{m-1}, e_m)``.
    """
    if len(edges) < 2:
        raise SchemaError("need at least two edges to form a bin")
    labels = []
    for lo, hi in zip(edges[:-2], edges[1:-1]):
        labels.append(f"[{lo:{fmt}}, {hi:{fmt}})")
    if closed_last:
        labels.append(f"[{edges[-2]:{fmt}}, {edges[-1]:{fmt}})")
    else:
        labels.append(f"[{edges[-2]:{fmt}}, inf)")
    return tuple(labels)
