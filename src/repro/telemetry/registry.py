"""The unified metrics registry: one namespace for every counter.

Before this module the repo had three hand-rolled counter systems
(:class:`repro.pipeline.metrics.PipelineMetrics`,
:class:`repro.query.stats.QueryStats`, the status page) with no shared
types and no export format.  :class:`MetricsRegistry` is the single
substrate they now all report into: named metric *families*
(:class:`Counter` / :class:`Gauge` / :class:`Histogram`) with label
dimensions, registered get-or-create so independent components can
share one namespace, and snapshotted atomically for exposition
(:mod:`repro.telemetry.exposition` renders Prometheus text and JSON).

Design rules:

* **thread-safe** — any thread may increment any metric; every child
  metric has its own small lock so hot paths never contend on a
  registry-wide lock;
* **atomic reads** — ``Histogram.snapshot()`` (and the ``count`` /
  ``mean`` properties) take the histogram lock, so a concurrent
  exposition thread can never observe a torn (sum, count) pair;
* **pre-bindable** — ``family.labels(...)`` returns the same child
  object for the same label values, so per-update code paths bind
  their child once and pay a single ``inc()`` per event;
* **declared once** — a :class:`Declared` names a family and the
  snapshot field each of its children fills; :func:`bind` hands call
  sites those children and :func:`read` fills the snapshot dataclasses
  back from the registry, so a count lives nowhere else;
* **no repro-internal imports** — both the collection side
  (:mod:`repro.pipeline`) and the serving side (:mod:`repro.query`)
  depend on this module without cycles.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, fields as dataclass_fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

#: Histogram bucket upper bounds in seconds (log-spaced 1µs .. ~67s,
#: one bucket per factor of 4), plus a catch-all overflow bucket.
#: These are the bounds the pipeline's latency histograms always used.
DEFAULT_LATENCY_BOUNDS: Tuple[float, ...] = tuple(
    1e-6 * 4 ** i for i in range(14)
) + (math.inf,)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Counter:
    """A monotonically increasing value (thread-safe)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A current value plus its high-water mark (thread-safe)."""

    __slots__ = ("_lock", "_value", "_high_water", "_sets")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value: float = 0
        self._high_water: float = 0
        self._sets = 0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value
            if value > self._high_water:
                self._high_water = value
            self._sets += 1

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount
            if self._value > self._high_water:
                self._high_water = self._value
            self._sets += 1

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    @property
    def high_water(self) -> float:
        with self._lock:
            return self._high_water

    @property
    def touched(self) -> bool:
        """True once :meth:`set` or :meth:`inc` has ever been called."""
        with self._lock:
            return self._sets > 0


@dataclass(frozen=True)
class HistogramSnapshot:
    """One atomic observation of a histogram's (buckets, sum, count)."""

    bounds: Tuple[float, ...]
    counts: Tuple[int, ...]
    sum: float
    count: int

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Upper bound of the bucket holding the p-th percentile."""
        if not 0.0 <= p <= 1.0:
            raise ValueError("percentile must be in [0, 1]")
        if not self.count:
            return 0.0
        target = p * self.count
        seen = 0
        for bound, count in zip(self.bounds, self.counts):
            seen += count
            if seen >= target:
                return bound
        return self.bounds[-1]


class Histogram:
    """A fixed-bucket histogram (thread-safe, atomically snapshotable).

    Unlike the pre-registry pipeline histogram, *every* read path —
    ``count``, ``mean``, ``percentile`` and ``snapshot`` — takes the
    lock, so a reader racing ``record`` can never observe a torn
    (sum, count) pair (a recorded sum with a stale count, or vice
    versa).
    """

    __slots__ = ("_lock", "bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: Optional[Sequence[float]] = None) -> None:
        resolved = tuple(bounds) if bounds is not None \
            else DEFAULT_LATENCY_BOUNDS
        if not resolved:
            raise ValueError("histogram needs at least one bucket")
        if any(b > a for a, b in zip(resolved[1:], resolved)):
            raise ValueError("bucket bounds must be nondecreasing")
        if resolved[-1] != math.inf:
            resolved = resolved + (math.inf,)
        self.bounds = resolved
        self._lock = threading.Lock()
        self._counts = [0] * len(resolved)
        self._sum = 0.0
        self._count = 0

    def record(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Upper bound of the bucket holding the p-th percentile."""
        return self.snapshot().percentile(p)

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            return HistogramSnapshot(self.bounds, tuple(self._counts),
                                     self._sum, self._count)


Metric = Union[Counter, Gauge, Histogram]


class MetricFamily:
    """One named metric with zero or more label dimensions.

    ``labels(...)`` returns the child metric for one label-value
    combination, creating it on first use and returning the *same*
    object thereafter (bind it once outside a hot loop).  A family
    declared without labels proxies the child methods directly, so
    ``registry.counter("x").inc()`` works without a ``labels()`` call.
    """

    def __init__(self, name: str, kind: str, help: str,
                 label_names: Tuple[str, ...],
                 factory: Callable[[], Metric],
                 unit: str = "",
                 track_high_water: bool = False):
        self.name = name
        self.kind = kind
        self.help = help
        self.unit = unit
        self.label_names = label_names
        self.track_high_water = track_high_water
        self._factory = factory
        self._lock = threading.Lock()
        self._children: "OrderedDict[Tuple[str, ...], Metric]" = \
            OrderedDict()
        if not label_names:
            self._default: Optional[Metric] = self.labels()
        else:
            self._default = None

    def labels(self, *values, **by_name) -> Metric:
        """The child metric for one label-value combination."""
        if by_name:
            if values:
                raise ValueError("pass labels positionally or by "
                                 "name, not both")
            try:
                values = tuple(by_name[n] for n in self.label_names)
            except KeyError as exc:
                raise ValueError(f"missing label {exc} for "
                                 f"{self.name}") from None
            if len(by_name) != len(self.label_names):
                unknown = set(by_name) - set(self.label_names)
                raise ValueError(f"unknown labels {sorted(unknown)} "
                                 f"for {self.name}")
        key = tuple(str(v) for v in values)
        if len(key) != len(self.label_names):
            raise ValueError(
                f"{self.name} takes labels {self.label_names}, "
                f"got {len(key)} value(s)")
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._factory()
                self._children[key] = child
            return child

    def _sole(self) -> Metric:
        if self._default is None:
            raise ValueError(f"{self.name} is labelled by "
                             f"{self.label_names}; call labels() first")
        return self._default

    # -- label-less conveniences --------------------------------------------

    def inc(self, amount: float = 1.0) -> None:
        self._sole().inc(amount)            # type: ignore[union-attr]

    def set(self, value: float) -> None:
        self._sole().set(value)             # type: ignore[union-attr]

    def record(self, value: float) -> None:
        self._sole().record(value)          # type: ignore[union-attr]

    @property
    def value(self) -> float:
        return self._sole().value           # type: ignore[union-attr]

    @property
    def count(self) -> int:
        return self._sole().count           # type: ignore[union-attr]

    @property
    def sum(self) -> float:
        return self._sole().sum             # type: ignore[union-attr]

    @property
    def high_water(self) -> float:
        return self._sole().high_water      # type: ignore[union-attr]

    @property
    def touched(self) -> bool:
        return self._sole().touched         # type: ignore[union-attr]

    def snapshot(self) -> HistogramSnapshot:
        return self._sole().snapshot()      # type: ignore[union-attr]

    def children(self) -> List[Tuple[Tuple[str, ...], Metric]]:
        with self._lock:
            return list(self._children.items())


@dataclass(frozen=True)
class Sample:
    """One exposition sample: label values + a scalar or histogram."""

    labels: Tuple[Tuple[str, str], ...]
    value: Union[float, HistogramSnapshot]


@dataclass(frozen=True)
class FamilySnapshot:
    """One family's atomic contribution to an exposition."""

    name: str
    kind: str
    help: str
    unit: str
    label_names: Tuple[str, ...]
    samples: Tuple[Sample, ...]


class MetricsRegistry:
    """Get-or-create registry of metric families (thread-safe).

    Re-registering an existing name is allowed when kind and labels
    match — that is what lets :class:`~repro.pipeline.metrics.
    PipelineMetrics` and :class:`~repro.query.stats.QueryStats` share
    one registry without coordinating — and a :class:`ValueError` when
    they clash, which catches accidental name collisions early.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: "OrderedDict[str, MetricFamily]" = OrderedDict()

    # -- registration --------------------------------------------------------

    def _get_or_create(self, name: str, kind: str, help: str,
                       labels: Sequence[str], unit: str,
                       factory: Callable[[], Metric],
                       track_high_water: bool = False) -> MetricFamily:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        label_names = tuple(labels)
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name: {label!r}")
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind \
                        or family.label_names != label_names:
                    raise ValueError(
                        f"metric {name} already registered as "
                        f"{family.kind}{family.label_names}, not "
                        f"{kind}{label_names}")
                return family
            family = MetricFamily(name, kind, help, label_names,
                                  factory, unit=unit,
                                  track_high_water=track_high_water)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = (),
                unit: str = "") -> MetricFamily:
        return self._get_or_create(name, "counter", help, labels,
                                   unit, Counter)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = (), unit: str = "",
              track_high_water: bool = False) -> MetricFamily:
        return self._get_or_create(name, "gauge", help, labels, unit,
                                   Gauge,
                                   track_high_water=track_high_water)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (), unit: str = "",
                  bounds: Optional[Sequence[float]] = None
                  ) -> MetricFamily:
        resolved = tuple(bounds) if bounds is not None else None
        return self._get_or_create(
            name, "histogram", help, labels, unit,
            lambda: Histogram(resolved))

    # -- collection ----------------------------------------------------------

    def families(self) -> List[MetricFamily]:
        with self._lock:
            return list(self._families.values())

    def collect(self) -> List[FamilySnapshot]:
        """Snapshot every family (histograms atomically per-child)."""
        out: List[FamilySnapshot] = []
        for family in self.families():
            samples: List[Sample] = []
            high_water: List[Sample] = []
            for key, child in sorted(family.children()):
                labels = tuple(zip(family.label_names, key))
                if isinstance(child, Histogram):
                    samples.append(Sample(labels, child.snapshot()))
                else:
                    samples.append(Sample(labels, child.value))
                    if family.track_high_water \
                            and isinstance(child, Gauge):
                        high_water.append(
                            Sample(labels, child.high_water))
            out.append(FamilySnapshot(
                family.name, family.kind, family.help, family.unit,
                family.label_names, tuple(samples)))
            if family.track_high_water:
                out.append(FamilySnapshot(
                    family.name + "_high_water", "gauge",
                    family.help + " (high-water mark)", family.unit,
                    family.label_names, tuple(high_water)))
        return out

    # -- exposition ----------------------------------------------------------

    def prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        from .exposition import to_prometheus
        return to_prometheus(self.collect())

    def to_json(self) -> dict:
        """The registry as a JSON-serializable document."""
        from .exposition import to_json
        return to_json(self.collect())

    def scalar_values(self) -> Dict[str, Tuple[float, bool]]:
        """Flattened ``{series: (value, monotonic)}`` for time series.

        Histograms contribute their ``_count`` and ``_sum`` series
        (both monotonic); gauges are non-monotonic (no rate).
        """
        from .exposition import flatten_scalars
        return flatten_scalars(self.collect())


# -- declared metrics ----------------------------------------------------------

class Declared:
    """One metric family, declared once: its name, HELP text and
    labels, and the snapshot field each of its children fills.

    ``fields`` maps a snapshot field to its child's label values.  When
    they cover fewer labels than the family has, the leading labels
    are the *row* (a session, a stage): :func:`bind` takes the row's
    values and :func:`read` builds one snapshot per row.  A gauge's
    ``high_water`` names the field its high-water mark fills (and adds
    the ``_high_water`` exposition companion).
    """

    def __init__(self, kind: str, name: str, help: str,
                 labels: Sequence[str] = (), unit: str = "",
                 high_water: str = "", **fields: Tuple[str, ...]):
        self.kind = kind
        self.name = name
        self.help = help
        self.labels = tuple(labels)
        self.unit = unit
        self.high_water = high_water
        self.fields = fields
        self.row = len(self.labels) - len(next(iter(fields.values())))

    def family(self, registry: MetricsRegistry) -> MetricFamily:
        if self.kind == "gauge":
            return registry.gauge(self.name, self.help, self.labels,
                                  self.unit, bool(self.high_water))
        return getattr(registry, self.kind)(self.name, self.help,
                                            self.labels, self.unit)


def bind(registry: MetricsRegistry, declarations: Sequence[Declared],
         *row: str) -> Dict[str, Metric]:
    """Register ``declarations`` and bind one row's children, keyed by
    the snapshot field each fills (the names call sites increment)."""
    children: Dict[str, Metric] = {}
    for declared in declarations:
        family = declared.family(registry)
        for field, values in declared.fields.items():
            children[field] = family.labels(*row, *values)
    return children


#: Snapshot field types a counter or gauge value is cast to.
_CASTS = {"int": int, "bool": bool}


def read(cls, registry: MetricsRegistry,
         declarations: Sequence[Declared], row: Optional[str] = None,
         **extra) -> list:
    """Snapshot dataclasses ``cls`` filled from the declared children.

    One per row, in the order rows were first bound, the row's label
    value in field ``row``; a flat family reads as the single row.  A
    counter or gauge fills its field with its value (``int`` and
    ``bool`` fields are cast), a histogram with its
    :class:`HistogramSnapshot`.  A gauge nothing has set is skipped,
    so its field keeps the dataclass default.  ``extra`` fills the
    fields no declaration names.
    """
    rows: Dict[Tuple[str, ...], Dict[str, object]] = {}
    for declared in declarations:
        field_of = {v: f for f, v in declared.fields.items()}
        for key, child in declared.family(registry).children():
            field = field_of.get(key[declared.row:])
            if field is None:
                continue
            values = rows.setdefault(key[:declared.row], {})
            if isinstance(child, Histogram):
                values[field] = child.snapshot()
            elif isinstance(child, Counter) or child.touched:
                values[field] = child.value
                if declared.high_water:
                    values[declared.high_water] = child.high_water
    casts = {f.name: _CASTS.get(getattr(f.type, "__name__", f.type))
             for f in dataclass_fields(cls)}
    snapshots = []
    for key, values in rows.items():
        kwargs = {name: casts[name](value) if casts[name] else value
                  for name, value in values.items() if name in casts}
        if row is not None:
            kwargs[row] = key[0]
        snapshots.append(cls(**kwargs, **extra))
    return snapshots


def set_build_info(registry: MetricsRegistry, version: str,
                   backend: str = "none") -> Gauge:
    """Register the ``repro_build_info`` gauge on ``registry``.

    The Prometheus build-info idiom: a gauge pinned at 1 whose labels
    (package version, Python runtime, worker backend) let scrapes tell
    deployments apart.  Idempotent per registry — re-binding with a
    different backend just flips which child is set.
    """
    import platform as _platform

    gauge = registry.gauge(
        "repro_build_info",
        "Build / deployment identity (value is always 1).",
        labels=("version", "python", "backend"))
    gauge.labels(version=version,
                 python=_platform.python_version(),
                 backend=backend).set(1.0)
    return gauge
