"""The flow's one front door: what a synthesis request is, and how it runs.

Fig. 6 is a push-button flow with one input interface.  Every way into
this code base — the library calls of :mod:`repro.flow.compile`, each
``systolic-synth`` subcommand and ``POST /v1/jobs`` on the service —
describes its work as one :class:`SynthesisRequest` and executes it with
:func:`run`.  The request
is built from three things, each written once, here:

* **the option table** (:data:`OPTIONS`) — every request option's wire
  name, type, default (read from ``Platform()`` / ``DseConfig()``, never
  restated), command-line help text and the subjects it applies to.
  :func:`lower_options` validates an options object against it (every
  bad value is a ``ValueError``) and lowers it to the request's fields;
  the command line derives its ``--device`` … ``--clock`` flags and the
  options object ``submit`` posts from the same rows.
* **the subject loader** (:meth:`SynthesisRequest.from_payload`) —
  restricted-C ``source``, a saved ``design`` or a ``network`` (a
  built-in name from :data:`repro.nn.models.BUILTIN_NETWORKS` or a JSON
  spec for the importer) to a loop nest or a :class:`Network`.
* **the runner** (:func:`run_context`, folded by :func:`run`) — the
  only place that builds a :class:`SynthesisContext` and a
  :class:`PipelineEngine`: the six-stage layer pipeline for a nest, the
  one-stage ``unified-dse`` pipeline for a network.

A request's identity (:meth:`SynthesisRequest.fingerprint`) is the stage
cache's own key function over (subject, platform, config, strict,
sim_backend), which is what lets the service coalesce equal submissions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, NamedTuple, Sequence

from repro.dse.explore import DseConfig
from repro.dse.multi_layer import MultiLayerResult
from repro.hw.datatype import datatype_by_name
from repro.hw.device import device_by_name
from repro.ir.loop import LoopNest
from repro.model.platform import Platform
from repro.model.serialize import design_from_dict, plain
from repro.nn.models import Network, network_by_name
from repro.pipeline.cache import CacheSpec, StageCache, resolve_cache
from repro.pipeline.context import SynthesisContext, SynthesisResult
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.events import Observer
from repro.pipeline.stages import SIM_BACKENDS, UnifiedDseStage, synthesis_stages


class Option(NamedTuple):
    """One row of :data:`OPTIONS`.

    Attributes:
        kind: the value's type; a wire value must be JSON data of it
            (:func:`repro.model.serialize.plain`'s fit rule) and is cast
            with it.
        default: the value of an absent (or ``null``) option.
        help: help text of the generic ``--<name>`` flag; None for an
            option the command line spells its own way per subcommand
            (``--sim-backend``, ``--no-pragma``) or not at all (``strict``).
        dse: a search knob — only subcommands that run a DSE carry its flag.
        nest_only: refused for a network subject.
    """

    kind: type
    default: Any
    help: str | None = None
    dse: bool = False
    nest_only: bool = False


_PLATFORM, _CONFIG = Platform(), DseConfig()

OPTIONS: dict[str, Option] = {
    "device": Option(str, _PLATFORM.device.name, "target FPGA"),
    "datatype": Option(str, _PLATFORM.datatype.name, "float32 | fixed8_16 | fixed16"),
    "cs": Option(
        float, _CONFIG.min_dsp_utilization, "minimum DSP utilization (Eq. 12 c_s)", dse=True
    ),
    "top_n": Option(int, _CONFIG.top_n, "phase-2 finalist count", dse=True),
    "clock": Option(
        float, _PLATFORM.assumed_clock_mhz, "phase-1 assumed clock (MHz)", dse=True
    ),
    "strict": Option(bool, False),
    "sim_backend": Option(str, None, nest_only=True),
    "require_pragma": Option(bool, True),
}
"""The request options by wire name (``options.<name>`` in a submission
body, ``--<name>`` with dashes on the command line), in flag order.
``require_pragma`` is read for ``source`` subjects only."""


def lower_options(options: Any) -> dict[str, Any]:
    """Validate an options object against :data:`OPTIONS` and lower it to
    the request fields it sets: ``platform``, ``config``, ``strict``,
    ``sim_backend``, ``require_pragma``.

    Raises:
        ValueError: unknown option, a value that is not JSON data of the
            option's type (``"false"`` for a bool, ``2.7`` or ``true``
            for an int), out-of-range value, unknown device / datatype /
            simulator backend.
    """
    if not isinstance(options, dict):
        raise ValueError("'options' must be an object")
    unknown = set(options) - OPTIONS.keys()
    if unknown:
        raise ValueError(f"unknown options: {sorted(unknown)}; supported: {sorted(OPTIONS)}")
    try:
        value = {
            name: option.default
            if options.get(name) is None
            else option.kind(plain(option.kind.__name__).decode(options[name]))
            for name, option in OPTIONS.items()
        }
        platform = Platform(
            device=device_by_name(value["device"]),
            datatype=datatype_by_name(value["datatype"]),
            assumed_clock_mhz=value["clock"],
        )
    except KeyError as exc:  # the hw registries name their choices
        raise ValueError(exc.args[0]) from exc
    except (TypeError, OverflowError) as exc:  # OverflowError: an int past float range
        raise ValueError(f"malformed option value: {exc}") from exc
    config = DseConfig(min_dsp_utilization=value["cs"], top_n=value["top_n"])
    if value["sim_backend"] not in (None, *SIM_BACKENDS):
        raise ValueError(
            f"unknown sim_backend {value['sim_backend']!r}; choices: {list(SIM_BACKENDS)}"
        )
    return {
        "platform": platform,
        "config": config,
        **{name: value[name] for name in ("strict", "sim_backend", "require_pragma")},
    }


def _network_of(spec: Any) -> Network:
    """A ``network`` subject: a built-in model name, or a JSON spec for
    the importer."""
    if isinstance(spec, str):
        return network_by_name(spec)
    if not isinstance(spec, dict):
        raise ValueError("'network' must be a built-in model name or a JSON spec object")
    from repro.frontend.network import import_json

    result = import_json(spec, strict=False)
    if not result.ok:
        raise ValueError(
            "network spec rejected: " + "; ".join(d.render() for d in result.report.errors)
        )
    return result.network


@dataclass(frozen=True)
class SynthesisRequest:
    """A parsed, validated request — everything one synthesis needs.

    Exactly one subject is set: ``nest`` (single-layer synthesis),
    ``network`` (whole-network unified DSE) or ``source`` (restricted-C
    text the pipeline's parse stage turns into the nest with
    :func:`~repro.analysis.nest_check.nest_from_source`, the parse
    :meth:`from_payload` also runs).  ``strict`` is the one switch of
    the static-analysis self-audits: every stage reads it from here.
    """

    platform: Platform = field(default_factory=Platform)
    config: DseConfig = field(default_factory=DseConfig)
    nest: LoopNest | None = None
    network: Network | None = None
    source: str | None = None
    name: str = "job"
    strict: bool = False
    sim_backend: str | None = None
    require_pragma: bool = True

    def __post_init__(self) -> None:
        if sum(s is not None for s in (self.nest, self.network, self.source)) != 1:
            raise ValueError("a request has exactly one of nest, network or source")

    @classmethod
    def from_payload(cls, payload: Any) -> "SynthesisRequest":
        """Parse a JSON submission body: ``source`` | ``design`` |
        ``network``, plus ``name`` and ``options``.

        Raises:
            ValueError: on any malformed field (the service answers 400,
                the command line exits 2).
        """
        if not isinstance(payload, dict):
            raise ValueError("submission body must be a JSON object")
        source, design, network = (payload.get(k) for k in ("source", "design", "network"))
        if sum(x is not None for x in (source, design, network)) != 1:
            raise ValueError("provide exactly one of 'source', 'design' or 'network'")
        options = payload.get("options") or {}
        fields = lower_options(options)
        name = str(payload.get("name") or "job")
        if network is not None:
            refused = [n for n, o in OPTIONS.items() if o.nest_only and options.get(n) is not None]
            if refused:
                raise ValueError(
                    f"{', '.join(map(repr, refused))} applies to single-nest jobs "
                    "only, not 'network' submissions"
                )
            network = _network_of(network)
            return cls(network=network, name=str(payload.get("name") or network.name), **fields)
        if design is not None:
            return cls(nest=design_from_dict(design).nest, name=name, **fields)
        if not isinstance(source, str):
            raise ValueError("'source' must be C text")
        from repro.analysis.nest_check import nest_from_source

        # The parse stage's own parse: a verdict must not depend on the door.
        nest = nest_from_source(
            source, name=name, require_pragma=fields["require_pragma"], strict=fields["strict"]
        )
        return cls(nest=nest, name=name, **fields)

    def fingerprint(self) -> str:
        """The coalescing identity of a request: the stage cache's key
        function, so logically equal submissions always collide.  C text
        is identified by the nest it parses to, and the subject's display
        name is normalized out — two tenants submitting the same nest
        under different labels must still coalesce."""
        subject = self.network if self.network is not None else self.nest
        if subject is None:
            from repro.analysis.nest_check import nest_from_source

            subject = nest_from_source(
                self.source, name=self.name, require_pragma=self.require_pragma,
                strict=self.strict,
            )
        return StageCache.key_for(
            "service-job",
            replace(subject, name=""),
            self.platform,
            self.config,
            self.strict,
            self.sim_backend or "",
        )


def run_context(
    request: SynthesisRequest,
    *,
    jobs: int = 1,
    cache: CacheSpec = None,
    observers: Sequence[Observer] = (),
) -> SynthesisContext:
    """Run one request through the staged pipeline engine: the six-stage
    layer pipeline for a nest, the one-stage ``unified-dse`` pipeline for
    a network.  Arguments as :func:`run`; returns the final context."""
    engine = PipelineEngine(
        [UnifiedDseStage()] if request.network is not None else synthesis_stages(),
        cache=resolve_cache(cache),
        observers=tuple(observers),
    )
    return engine.run(
        SynthesisContext(
            platform=request.platform,
            config=request.config,
            name=request.name,
            source=request.source,
            require_pragma=request.require_pragma,
            strict=request.strict,
            jobs=jobs,
            sim_backend=request.sim_backend,
            nest=request.nest,
            network=request.network,
        )
    )


def run(
    request: SynthesisRequest,
    *,
    jobs: int = 1,
    cache: CacheSpec = None,
    observers: Sequence[Observer] = (),
) -> SynthesisResult | MultiLayerResult:
    """Run one request through the staged pipeline engine.

    Args:
        request: what to synthesize.
        jobs: worker processes for the DSE fan-out (1 = serial, <= 0 =
            all cores); the result is bit-identical for any value.
        cache: stage cache — see :data:`repro.pipeline.cache.CacheSpec`.
        observers: pipeline event callbacks.

    Returns:
        The layer flow's :class:`SynthesisResult`, or the unified design
        (:class:`MultiLayerResult`) of a network request.
    """
    ctx = run_context(request, jobs=jobs, cache=cache, observers=observers)
    return ctx.unified if request.network is not None else ctx.to_result()


__all__ = ["OPTIONS", "Option", "SynthesisRequest", "lower_options", "run", "run_context"]
