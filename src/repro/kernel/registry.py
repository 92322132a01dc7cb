"""The scheme registry: names to :class:`Scheme` descriptors.

Built-in schemes register lazy loaders here so importing
:mod:`repro.kernel` never drags in the engines; a loader runs (and is
cached) the first time its name is requested.  :func:`get_scheme` also
accepts a :class:`~repro.engine.policies.LockingPolicy` *instance* --
fault-injection policies like the analysis subsystem's
``NoInheritPolicy`` become ad-hoc schemes with capabilities derived
from the policy's own flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional

from repro.errors import EngineError
from repro.kernel.scheme import SchemeCapabilities, locking_capabilities

#: Factory signature shared by every scheme:
#: ``(specs, observer=None, trace=False, trace_limit=None)``.
SchemeFactory = Callable[..., Any]


@dataclass(frozen=True)
class Scheme:
    """A registered concurrency-control scheme.

    ``build`` constructs a fresh engine; ``capabilities`` is what the
    runners and oracles branch on instead of names or classes.
    """

    name: str
    capabilities: SchemeCapabilities
    factory: SchemeFactory = field(repr=False)
    #: The runner caps multiprogramming at 1 (the serial baseline).
    force_serial: bool = False

    def build(
        self,
        specs,
        observer=None,
        trace: bool = False,
        trace_limit: Optional[int] = None,
    ):
        """Construct an engine for *specs* with the shared knobs."""
        return self.factory(
            specs,
            observer=observer,
            trace=trace,
            trace_limit=trace_limit,
        )


_LOADERS: Dict[str, Callable[[], Scheme]] = {}
_CACHE: Dict[str, Scheme] = {}


def register_scheme(name: str, loader: Callable[[], Scheme]) -> None:
    """Register *loader* as the (lazy) source of scheme *name*."""
    _LOADERS[name] = loader
    _CACHE.pop(name, None)


def scheme_names() -> tuple:
    """All registered scheme names, sorted."""
    return tuple(sorted(_LOADERS))


def get_scheme(selector) -> Scheme:
    """Resolve a scheme by registered name or from a policy instance.

    *selector* may be a :class:`Scheme` (returned as-is), a registered
    name, or a ``LockingPolicy`` instance (wrapped into an ad-hoc
    locking scheme -- how fault-injection policies enter the kernel).
    """
    if isinstance(selector, Scheme):
        return selector
    if not isinstance(selector, str):
        return _locking_scheme(selector)
    try:
        loader = _LOADERS[selector]
    except KeyError:
        raise EngineError(
            "unknown scheme %r (registered: %s)"
            % (selector, ", ".join(scheme_names()))
        ) from None
    if selector not in _CACHE:
        _CACHE[selector] = loader()
    return _CACHE[selector]


# ----------------------------------------------------------------------
# Built-in schemes
# ----------------------------------------------------------------------
def _locking_scheme(policy) -> Scheme:
    """Wrap a locking policy (instance) as a scheme descriptor."""
    from repro.engine.engine import Engine

    def factory(specs, observer=None, trace=False, trace_limit=None):
        return Engine(
            specs,
            policy=policy,
            trace=trace,
            trace_limit=trace_limit,
            observer=observer,
        )

    return Scheme(
        name=policy.name,
        capabilities=locking_capabilities(policy),
        factory=factory,
    )


def _load_locking(policy_name: str) -> Callable[[], Scheme]:
    def loader() -> Scheme:
        from repro.engine.policies import make_policy

        return _locking_scheme(make_policy(policy_name))

    return loader


def _load_serial() -> Scheme:
    # The serial baseline is moss-rw driven one program at a time; the
    # runner reads ``force_serial`` instead of matching the name.
    from repro.engine.policies import make_policy

    return replace(
        _locking_scheme(make_policy("moss-rw")),
        name="serial",
        force_serial=True,
    )


def _load_mvto() -> Scheme:
    from repro.mvto.mv_engine import MVTOEngine

    def factory(specs, observer=None, trace=False, trace_limit=None):
        # MVTO keeps no model-alphabet trace; ``trace`` is accepted for
        # factory parity and ignored (``engine.recorder`` is None).
        return MVTOEngine(specs, observer=observer)

    return Scheme(
        name="mvto",
        capabilities=MVTOEngine.capabilities,
        factory=factory,
    )


def _load_broken_no_inherit() -> Scheme:
    from repro.analysis.faults import NoInheritPolicy

    return _locking_scheme(NoInheritPolicy())


for _name in ("moss-rw", "exclusive", "flat-2pl", "semantic"):
    register_scheme(_name, _load_locking(_name))
register_scheme("serial", _load_serial)
register_scheme("mvto", _load_mvto)
register_scheme("broken-no-inherit", _load_broken_no_inherit)
