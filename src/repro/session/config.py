"""The one typed configuration object behind every entry point.

Every knob of the measurement stack — executor, cache path, fleet
workers, architecture fields, tuner options — lives here.
:class:`SessionConfig` gathers them into six frozen sections
(:class:`ArchitectureConfig`, :class:`EngineConfig`,
:class:`CacheConfig`, :class:`FleetConfig`, :class:`TuningConfig`,
:class:`ObservabilityConfig`) with
*layered* construction and one documented precedence order::

    CLI flags  >  explicit kwargs  >  REPRO_* environment  >  config file  >  defaults

Each layer is a flat mapping of the keys listed by
:func:`field_specs`; :meth:`SessionConfig.resolve` merges them.  The
same field metadata drives the CLI (every flag in ``repro run --help``
is *derived* from it via :func:`add_config_arguments`) and the
``REPRO_*`` environment variables, so the three spellings of one knob
can never drift apart.

Construction forms::

    SessionConfig()                           # defaults
    SessionConfig.resolve(executor="process") # kwargs layer
    SessionConfig.from_file("repro.toml")     # TOML or JSON file
    SessionConfig.from_env()                  # REPRO_* variables
    SessionConfig.from_dict({...})            # nested dict (round-trips
                                              #   repro config show --json)

Unknown sections or keys raise :class:`~repro.errors.ConfigError` —
a typo'd ``[cach]`` heading fails loudly instead of being ignored.

One config file can also carry named **profiles** — ``[profile.edge]``
/ ``[profile.cloud]`` tables holding partial section overlays — so one
``repro.toml`` describes a whole sweep matrix.  A profile is selected
with ``--profile`` (or ``SessionConfig.from_file(path, profile=...)``)
and merges over the file's base sections *inside* the file layer, so
env/kwargs/CLI still win; :func:`load_profiles` returns every overlay
for matrix expansion (:meth:`repro.sweep.SweepPlan.matrix`).
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConfigError

#: Architectures the config accepts (mirrors the CLI's historical set).
ARCHITECTURES = ("maeri", "sigma", "tpu", "magma")
MAPPING_STRATEGIES = ("default", "tuned", "mrna")
OBJECTIVES = ("cycles", "psums", "energy")
TUNERS = ("grid", "random", "ga", "xgb")

#: Prefix of every configuration environment variable.
ENV_PREFIX = "REPRO_"


def _meta(
    key: Optional[str] = None,
    kind: str = "str",
    help: str = "",
    choices: Union[Sequence[str], Callable[[], Sequence[str]], None] = None,
    env: Optional[str] = None,
    cli: bool = True,
    metavar: Optional[str] = None,
) -> Dict[str, Any]:
    """Field metadata: the single source the CLI and env layers read.

    Args:
        key: Flat key (kwargs/env/CLI spelling); defaults to the field
            name.
        kind: Coercion rule — "str", "optstr", "int", "optint",
            "float", "bool", or "workers" (comma list <-> tuple).
        help: CLI help text.
        choices: Allowed values (or a callable producing them, resolved
            at parser-build time so late registrations are included).
        env: Environment variable override (default ``REPRO_<KEY>``).
        cli: Whether to expose the field as a CLI flag.
        metavar: CLI metavar override.
    """
    return {
        "key": key,
        "kind": kind,
        "help": help,
        "choices": choices,
        "env": env,
        "cli": cli,
        "metavar": metavar,
    }


def _registered_backends() -> Sequence[str]:
    from repro.engine import registered_backends

    return registered_backends()


@dataclass(frozen=True)
class ArchitectureConfig:
    """The simulated accelerator (paper Table III knobs)."""

    arch: str = field(
        default="maeri",
        metadata=_meta(kind="str", choices=ARCHITECTURES,
                       help="simulated accelerator architecture"),
    )
    ms_size: int = field(
        default=128,
        metadata=_meta(kind="int",
                       help="multiplier switches (LINEAR networks)"),
    )
    ms_rows: int = field(
        default=16, metadata=_meta(kind="int", help="TPU mesh rows"),
    )
    ms_cols: int = field(
        default=16, metadata=_meta(kind="int", help="TPU mesh columns"),
    )
    dn_bw: int = field(
        default=64,
        metadata=_meta(kind="int", help="distribution network bandwidth"),
    )
    rn_bw: int = field(
        default=16,
        metadata=_meta(kind="int", help="reduction network bandwidth"),
    )
    sparsity_ratio: float = field(
        default=0.0,
        metadata=_meta(key="sparsity_ratio", kind="float",
                       help="weight sparsity as a ratio in [0, 1) "
                            "(SIGMA/MAGMA), also as a sweep axis "
                            "(--axis architecture.sparsity_ratio=0,0.5,0.9)"),
    )

    def __post_init__(self) -> None:
        if self.arch not in ARCHITECTURES:
            raise ConfigError(
                f"arch must be one of {ARCHITECTURES}, got {self.arch!r}"
            )
        if not 0.0 <= self.sparsity_ratio < 1.0:
            raise ConfigError(
                f"sparsity_ratio must be in [0.0, 1.0), "
                f"got {self.sparsity_ratio}"
            )


@dataclass(frozen=True)
class EngineConfig:
    """How the evaluation engine executes cache-missing simulations."""

    executor: Optional[str] = field(
        default=None,
        metadata=_meta(kind="optstr", choices=_registered_backends,
                       help="executor backend for batched evaluations: "
                            "serial (inline, the default), process "
                            "(parallel worker processes), or remote "
                            "(shard across fleet workers)"),
    )
    max_workers: Optional[int] = field(
        default=None,
        metadata=_meta(kind="optint",
                       help="pool width of the process backend"),
    )
    functional: bool = field(
        default=False,
        metadata=_meta(kind="bool",
                       help="also execute the exact im2col datapath on "
                            "synthetic tensors per simulation without "
                            "caller tensors (real STONNE's cost profile); "
                            "offloaded graph layers compute on their real "
                            "tensors once either way"),
    )

    def __post_init__(self) -> None:
        if self.executor is not None and self.executor not in _registered_backends():
            raise ConfigError(
                f"executor must be one of {sorted(_registered_backends())}, "
                f"got {self.executor!r}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ConfigError(
                f"max_workers must be >= 1, got {self.max_workers}"
            )


@dataclass(frozen=True)
class CacheConfig:
    """The stats-cache tiers (in-memory L1 + optional persistent tier)."""

    path: Optional[str] = field(
        default=None,
        metadata=_meta(key="cache_path", kind="optstr", metavar="FILE",
                       help="persist the simulation-stats cache here; "
                            ".sqlite/.sqlite3/.db selects the shared "
                            "WAL-mode tier, anything else the JSONL "
                            "warm-start spill"),
    )
    max_rows: Optional[int] = field(
        default=None,
        metadata=_meta(key="cache_max_rows", kind="optint",
                       help="row-count cap for the SQLite tier; least "
                            "recently accessed rows are evicted past it "
                            "(unbounded when unset)"),
    )
    max_entries: int = field(
        default=65536,
        metadata=_meta(key="cache_max_entries", kind="int",
                       help="in-memory L1 LRU bound (records)"),
    )

    def __post_init__(self) -> None:
        if self.max_rows is not None and self.max_rows < 1:
            raise ConfigError(f"cache_max_rows must be >= 1, got {self.max_rows}")
        if self.max_entries < 1:
            raise ConfigError(
                f"cache_max_entries must be >= 1, got {self.max_entries}"
            )


@dataclass(frozen=True)
class FleetConfig:
    """The distributed tier: worker addresses for the remote backend."""

    workers: Tuple[str, ...] = field(
        default=(),
        metadata=_meta(kind="workers", env="REPRO_FLEET_WORKERS",
                       metavar="HOST:PORT,...",
                       help="fleet worker addresses for the remote "
                            "executor (implies --executor remote; start "
                            "them with: repro worker --listen HOST:PORT)"),
    )
    autostart: int = field(
        default=0,
        metadata=_meta(key="fleet_autostart", kind="int",
                       help="spawn this many local worker daemons on "
                            "free ports when the session opens (reaped "
                            "at close; implies the remote executor "
                            "unless another one is named)"),
    )

    capacity: int = field(
        default=1,
        metadata=_meta(key="fleet_capacity", kind="int",
                       help="scheduling weight a worker advertises in "
                            "its hello (repro worker) and autostarted "
                            "workers inherit; the remote backend gives "
                            "it that many scheduler slots"),
    )
    shard_timeout: float = field(
        default=600.0,
        metadata=_meta(key="fleet_shard_timeout", kind="float",
                       help="seconds the remote backend waits for one "
                            "shard's results before declaring the "
                            "connection dead (the shard is then retried "
                            "on another worker, or run inline)"),
    )

    secret: Optional[str] = field(
        default=None,
        metadata=_meta(key="fleet_secret", kind="optstr", metavar="SECRET",
                       help="opt-in shared secret for the wire protocol: "
                            "repro worker and repro serve challenge "
                            "every connection (HMAC-SHA256 over a "
                            "per-connection nonce; the secret never "
                            "crosses the wire) and clients must answer "
                            "before anything else runs"),
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "workers", _coerce_workers(self.workers))
        if self.autostart < 0:
            raise ConfigError(
                f"fleet_autostart must be >= 0, got {self.autostart}"
            )
        if self.capacity < 1:
            raise ConfigError(
                f"fleet_capacity must be >= 1, got {self.capacity}"
            )
        if self.shard_timeout <= 0:
            raise ConfigError(
                f"fleet_shard_timeout must be > 0, got {self.shard_timeout}"
            )


@dataclass(frozen=True)
class TuningConfig:
    """Mapping-strategy and tuner options (§VII of the paper)."""

    mapping: str = field(
        default="mrna",
        metadata=_meta(kind="str", choices=MAPPING_STRATEGIES,
                       help="mapping source for MAERI layers"),
    )
    objective: str = field(
        default="psums",
        metadata=_meta(kind="str", choices=OBJECTIVES,
                       help="tuning cost to minimize"),
    )
    tuner: str = field(
        default="xgb",
        metadata=_meta(kind="str", choices=TUNERS,
                       help="search strategy for repro tune"),
    )
    trials: int = field(
        default=400,
        metadata=_meta(kind="int", help="measurement budget per layer"),
    )
    early_stopping: int = field(
        default=120,
        metadata=_meta(kind="int",
                       help="stop after this many trials without "
                            "improvement"),
    )
    seed: int = field(
        default=0,
        metadata=_meta(kind="int", help="RNG seed for stochastic tuners"),
    )

    def __post_init__(self) -> None:
        if self.mapping not in MAPPING_STRATEGIES:
            raise ConfigError(
                f"mapping must be one of {MAPPING_STRATEGIES}, got {self.mapping!r}"
            )
        if self.objective not in OBJECTIVES:
            raise ConfigError(
                f"objective must be one of {OBJECTIVES}, got {self.objective!r}"
            )
        if self.tuner not in TUNERS:
            raise ConfigError(
                f"tuner must be one of {TUNERS}, got {self.tuner!r}"
            )
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.early_stopping < 1:
            raise ConfigError(
                f"early_stopping must be >= 1, got {self.early_stopping}"
            )


@dataclass(frozen=True)
class ObservabilityConfig:
    """Tracing and metrics (the ``repro.obs`` subsystem)."""

    trace: bool = field(
        default=False,
        metadata=_meta(kind="bool",
                       help="record spans across session/engine/"
                            "scheduler/cache/fleet and write a Chrome "
                            "trace-event JSON (chrome://tracing or "
                            "Perfetto) when the session closes"),
    )
    trace_path: Optional[str] = field(
        default=None,
        metadata=_meta(key="trace_path", kind="optstr", metavar="FILE",
                       help="where --trace writes the trace file "
                            "(default: repro_trace.json)"),
    )
    metrics: bool = field(
        default=False,
        metadata=_meta(kind="bool",
                       help="attach a metrics section (per-tier cache "
                            "hit rates, simulations/sec, chunk-latency "
                            "histogram, fleet worker health) to run and "
                            "sweep reports"),
    )


# ----------------------------------------------------------------------
# coercion (one rule per `kind`, shared by the env, file and CLI layers)
# ----------------------------------------------------------------------
_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _coerce_workers(value) -> Tuple[str, ...]:
    if value is None:
        return ()
    if isinstance(value, str):
        return tuple(part.strip() for part in value.split(",") if part.strip())
    return tuple(str(part) for part in value)


def _coerce(key: str, kind: str, value):
    """Apply a field's coercion rule to a raw layer value."""
    if kind == "workers":
        return _coerce_workers(value)
    if value is None:
        if kind in ("optstr", "optint"):
            return None
        raise ConfigError(f"config key {key!r} does not accept null")
    if kind in ("optstr", "optint") and isinstance(value, str) and (
        not value.strip() or value.strip().lower() == "none"
    ):
        return None
    if kind in ("int", "optint"):
        if isinstance(value, bool):
            raise ConfigError(f"config key {key!r} expects an integer, got {value!r}")
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ConfigError(
                f"config key {key!r} expects an integer, got {value!r}"
            ) from None
    if kind == "float":
        if isinstance(value, bool):
            raise ConfigError(f"config key {key!r} expects a number, got {value!r}")
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ConfigError(
                f"config key {key!r} expects a number, got {value!r}"
            ) from None
    if kind == "bool":
        if isinstance(value, bool):
            return value
        text = str(value).strip().lower()
        if text in _TRUE:
            return True
        if text in _FALSE:
            return False
        raise ConfigError(
            f"config key {key!r} expects a boolean "
            f"({'/'.join(_TRUE)} or {'/'.join(_FALSE)}), got {value!r}"
        )
    return str(value)


# ----------------------------------------------------------------------
# field specs: the flattened view every layer speaks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FieldSpec:
    """One configuration knob, with its spelling in every layer."""

    section: str       #: section attribute on SessionConfig ("engine", ...)
    name: str          #: dataclass field name inside the section
    key: str           #: flat key (kwargs layer, CLI dest)
    kind: str          #: coercion rule
    help: str
    choices: Union[Sequence[str], Callable[[], Sequence[str]], None]
    env: str           #: environment variable name
    cli: bool          #: exposed as a CLI flag?
    metavar: Optional[str]

    @property
    def flag(self) -> str:
        """The CLI flag spelling (``--cache-max-rows``)."""
        return "--" + self.key.replace("_", "-")

    def resolved_choices(self) -> Optional[Sequence[str]]:
        if callable(self.choices):
            return tuple(self.choices())
        return self.choices


_SECTION_TYPES = (
    ("architecture", ArchitectureConfig),
    ("engine", EngineConfig),
    ("cache", CacheConfig),
    ("fleet", FleetConfig),
    ("tuning", TuningConfig),
    ("observability", ObservabilityConfig),
)


def _build_field_specs() -> Tuple[FieldSpec, ...]:
    specs: List[FieldSpec] = []
    for section_name, section_type in _SECTION_TYPES:
        for f in fields(section_type):
            meta = f.metadata
            key = meta.get("key") or f.name
            specs.append(
                FieldSpec(
                    section=section_name,
                    name=f.name,
                    key=key,
                    kind=meta.get("kind", "str"),
                    help=meta.get("help", ""),
                    choices=meta.get("choices"),
                    env=meta.get("env") or (ENV_PREFIX + key.upper()),
                    cli=meta.get("cli", True),
                    metavar=meta.get("metavar"),
                )
            )
    return tuple(specs)


#: Every knob, built once: the sections are fixed at import, and the
#: flat/nested views below walk this tuple on every config conversion.
_FIELD_SPECS: Tuple[FieldSpec, ...] = _build_field_specs()
_SPECS_BY_KEY: Dict[str, FieldSpec] = {spec.key: spec for spec in _FIELD_SPECS}
#: ``(section, field name) -> spec``: the nested spelling of each knob.
_SPECS_BY_FIELD: Dict[Tuple[str, str], FieldSpec] = {
    (spec.section, spec.name): spec for spec in _FIELD_SPECS
}
_SECTION_NAMES = tuple(section for section, _ in _SECTION_TYPES)


def field_specs() -> List[FieldSpec]:
    """Every configuration knob, in declaration order (a fresh list)."""
    return list(_FIELD_SPECS)


def known_keys() -> List[str]:
    """The flat key namespace (kwargs / env / CLI dests)."""
    return list(_SPECS_BY_KEY)


# ----------------------------------------------------------------------
# the config object
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SessionConfig:
    """The complete, immutable configuration of one measurement session.

    See the module docstring for the layering rules.  Instances are
    value objects: derive variants with :meth:`with_overrides`, never
    mutation.
    """

    architecture: ArchitectureConfig = field(default_factory=ArchitectureConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    fleet: FleetConfig = field(default_factory=FleetConfig)
    tuning: TuningConfig = field(default_factory=TuningConfig)
    observability: ObservabilityConfig = field(
        default_factory=ObservabilityConfig
    )

    # ------------------------------------------------------------------
    # flat view
    # ------------------------------------------------------------------
    def to_flat(self) -> Dict[str, Any]:
        """The config as one flat ``{key: value}`` mapping."""
        return {
            spec.key: getattr(getattr(self, spec.section), spec.name)
            for spec in _FIELD_SPECS
        }

    def with_overrides(self, **overrides: Any) -> "SessionConfig":
        """A copy with flat-key overrides applied (unknown keys raise)."""
        if not overrides:
            return self
        updates: Dict[str, Dict[str, Any]] = {}
        for key, value in overrides.items():
            spec = _SPECS_BY_KEY.get(key)
            if spec is None:
                raise ConfigError(
                    f"unknown config key {key!r}; known keys: "
                    f"{', '.join(known_keys())}"
                )
            updates.setdefault(spec.section, {})[spec.name] = _coerce(
                key, spec.kind, value
            )
        sections = {
            section: replace(getattr(self, section), **changes)
            for section, changes in updates.items()
        }
        return replace(self, **sections)

    # ------------------------------------------------------------------
    # nested (file / JSON) view
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """Nested plain-type dict; round-trips through :meth:`from_dict`
        (and therefore through ``repro config show --json``)."""
        data: Dict[str, Dict[str, Any]] = {}
        for spec in _FIELD_SPECS:
            value = getattr(getattr(self, spec.section), spec.name)
            if spec.kind == "workers":
                value = list(value)
            data.setdefault(spec.section, {})[spec.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SessionConfig":
        """Build from the nested section form (bad keys rejected)."""
        return cls().merged_with_dict(data)

    def merged_with_dict(self, data: Mapping[str, Any]) -> "SessionConfig":
        """Overlay a nested section dict on this config."""
        if not isinstance(data, Mapping):
            raise ConfigError(
                f"config data must be a mapping of sections, got {type(data).__name__}"
            )
        flat: Dict[str, Any] = {}
        for section, values in data.items():
            if section not in _SECTION_NAMES:
                raise ConfigError(
                    f"unknown config section {section!r}; expected one of "
                    f"{sorted(_SECTION_NAMES)}"
                )
            if not isinstance(values, Mapping):
                raise ConfigError(
                    f"config section {section!r} must be a table/mapping, "
                    f"got {type(values).__name__}"
                )
            for name, value in values.items():
                spec = _SPECS_BY_FIELD.get((section, name))
                if spec is None:
                    known = sorted(
                        s.name for s in _FIELD_SPECS if s.section == section
                    )
                    raise ConfigError(
                        f"unknown key {name!r} in config section {section!r}; "
                        f"expected one of {known}"
                    )
                flat[spec.key] = value
        return self.with_overrides(**flat)

    # ------------------------------------------------------------------
    # file / env layers
    # ------------------------------------------------------------------
    @classmethod
    def from_file(
        cls,
        path: Union[str, os.PathLike],
        profile: Optional[str] = None,
    ) -> "SessionConfig":
        """Defaults overlaid with a TOML (or ``.json``) config file.

        ``profile`` selects a named ``[profile.X]`` overlay from the
        same file, merged on top of the file's base sections (still
        below the env/kwargs/CLI layers).
        """
        base, profiles = _split_profiles(_load_config_file(path), path)
        config = cls().merged_with_dict(base)
        if profile is not None:
            config = config.merged_with_dict(
                _lookup_profile(profiles, profile, path)
            )
        return config

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> "SessionConfig":
        """Defaults overlaid with the ``REPRO_*`` environment variables."""
        return cls().with_overrides(**env_overrides(environ))

    @classmethod
    def resolve(
        cls,
        file: Union[str, os.PathLike, None] = None,
        env: Union[Mapping[str, str], bool, None] = None,
        cli: Optional[Mapping[str, Any]] = None,
        profile: Optional[str] = None,
        **kwargs: Any,
    ) -> "SessionConfig":
        """Merge every layer with the documented precedence.

        ``CLI > kwargs > env > file (profile over base) > defaults``.
        ``env`` is ``os.environ`` when None, a mapping to substitute
        one, or False to skip the environment layer entirely (hermetic
        construction).  ``profile`` selects a ``[profile.X]`` overlay
        from ``file`` — it is part of the file layer, so env/kwargs/CLI
        still win over it.
        """
        config = cls()
        if file is not None:
            config = cls.from_file(file, profile=profile)
        elif profile is not None:
            raise ConfigError(
                f"profile {profile!r} requested but no config file given"
            )
        if env is not False:
            config = config.with_overrides(
                **env_overrides(None if env is None else env)
            )
        if kwargs:
            config = config.with_overrides(**kwargs)
        if cli:
            config = config.with_overrides(**cli)
        return config

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_toml(
        self, profiles: Optional[Mapping[str, Mapping[str, Any]]] = None
    ) -> str:
        """Render as TOML text that :meth:`from_file` accepts, so
        ``repro config show > repro.toml`` produces a working file.

        Unset optional keys are emitted as comments (TOML has no null).
        ``profiles`` (name -> nested section overlay, the shape returned
        by :func:`load_profiles`) are appended as ``[profile.X.section]``
        tables, so a snapshot of a profile-bearing file keeps its
        profiles selectable via ``--profile``.
        """
        lines: List[str] = []
        for section, _ in _SECTION_TYPES:
            lines.append(f"[{section}]")
            for spec in _FIELD_SPECS:
                if spec.section != section:
                    continue
                value = getattr(getattr(self, section), spec.name)
                if value is None:
                    lines.append(f"# {spec.name} = (unset)")
                else:
                    lines.append(f"{spec.name} = {_toml_value(value)}")
            lines.append("")
        if profiles:
            lines.append(render_profiles_toml(profiles))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # hardware resolution
    # ------------------------------------------------------------------
    def build_simulator_config(self):
        """Resolve the architecture section into a validated
        :class:`~repro.stonne.config.SimulatorConfig`.

        Returns:
            ``(config, corrections)`` — the immutable hardware config and
            the list of auto-corrections the configurator applied.
        """
        from repro.bifrost.architecture import Architecture

        arch = Architecture()
        a = self.architecture
        # The controllers take an integer percentage.
        sparsity = int(round(a.sparsity_ratio * 100))
        if a.arch == "maeri":
            arch.maeri()
        elif a.arch == "sigma":
            arch.sigma(sparsity)
        elif a.arch == "magma":
            arch.magma(sparsity)
        else:
            arch.tpu(a.ms_rows, a.ms_cols)
        if a.arch != "tpu":
            arch.ms_size = a.ms_size
            arch.dn_bw = a.dn_bw
            arch.rn_bw = a.rn_bw
        config = arch.create_config_file()
        return config, arch.corrections


#: File section holding the named config overlays (``[profile.X]``).
PROFILE_SECTION = "profile"

#: Profile names renderable as bare TOML keys; anything else is quoted.
_BARE_KEY = re.compile(r"^[A-Za-z0-9_-]+$")


def _toml_value(value: Any) -> str:
    """One TOML value literal (the subset the config uses)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(json.dumps(v) for v in value) + "]"
    return json.dumps(value)


def _toml_key(name: str) -> str:
    return name if _BARE_KEY.match(name) else json.dumps(name)


def render_profiles_toml(
    profiles: Mapping[str, Mapping[str, Any]]
) -> str:
    """``[profile.X.section]`` tables that :meth:`SessionConfig.from_file`
    accepts back, so ``repro config show`` snapshots keep their profiles."""
    lines: List[str] = []
    for name, overlay in profiles.items():
        for section, values in overlay.items():
            lines.append(f"[{PROFILE_SECTION}.{_toml_key(name)}.{section}]")
            for key, value in values.items():
                if value is None:
                    lines.append(f"# {key} = (unset)")
                else:
                    lines.append(f"{key} = {_toml_value(value)}")
            lines.append("")
    return "\n".join(lines)


def _split_profiles(
    data: Mapping[str, Any], path: Union[str, os.PathLike, None] = None
) -> Tuple[Dict[str, Any], Dict[str, Dict[str, Any]]]:
    """Separate a raw config-file dict into (base sections, profiles).

    Every profile overlay is validated eagerly (a typo'd key in an
    *unselected* profile still fails loudly), so any profile the file
    offers is known-good by the time a sweep expands over it.
    """
    if not isinstance(data, Mapping):
        raise ConfigError(
            f"config data must be a mapping of sections, got {type(data).__name__}"
        )
    base = {k: v for k, v in data.items() if k != PROFILE_SECTION}
    raw = data.get(PROFILE_SECTION, {})
    if not isinstance(raw, Mapping):
        raise ConfigError(
            f"config section {PROFILE_SECTION!r} must be a table of named "
            f"profiles, got {type(raw).__name__}"
        )
    profiles: Dict[str, Dict[str, Any]] = {}
    for name, overlay in raw.items():
        if not isinstance(overlay, Mapping):
            raise ConfigError(
                f"profile {name!r} must be a table of config sections, "
                f"got {type(overlay).__name__}"
            )
        try:
            SessionConfig().merged_with_dict(overlay)
        except ConfigError as exc:
            where = f" in {path}" if path is not None else ""
            raise ConfigError(f"invalid profile {name!r}{where}: {exc}") from None
        profiles[name] = {
            section: dict(values) for section, values in overlay.items()
        }
    return base, profiles


def _lookup_profile(
    profiles: Mapping[str, Dict[str, Any]],
    name: str,
    path: Union[str, os.PathLike, None] = None,
) -> Dict[str, Any]:
    if name not in profiles:
        where = f"config file {path}" if path is not None else "config data"
        known = ", ".join(sorted(profiles)) or "(none)"
        raise ConfigError(
            f"{where} defines no profile {name!r}; available profiles: {known}"
        )
    return profiles[name]


def load_profiles(
    path: Union[str, os.PathLike]
) -> Dict[str, Dict[str, Any]]:
    """The validated ``[profile.X]`` overlays of a config file.

    Returns ``{name: nested section dict}`` in declaration order —
    the shape :meth:`SessionConfig.merged_with_dict` accepts and
    sweep matrices expand over.  Files without profiles return ``{}``.
    """
    _, profiles = _split_profiles(_load_config_file(path), path)
    return profiles


def _load_config_file(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """Parse a config file: ``.json`` as JSON, anything else as TOML."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    if p.suffix.lower() == ".json":
        try:
            return json.loads(p.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ConfigError(f"invalid JSON in config file {p}: {exc}") from None
    import tomllib

    try:
        with open(p, "rb") as handle:
            return tomllib.load(handle)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"invalid TOML in config file {p}: {exc}") from None


def env_overrides(
    environ: Optional[Mapping[str, str]] = None
) -> Dict[str, Any]:
    """The flat overrides present in the environment (coerced)."""
    source = os.environ if environ is None else environ
    overrides: Dict[str, Any] = {}
    for spec in _FIELD_SPECS:
        raw = source.get(spec.env)
        if raw is None or raw == "":
            continue
        overrides[spec.key] = _coerce(spec.key, spec.kind, raw)
    return overrides


# ----------------------------------------------------------------------
# CLI derivation
# ----------------------------------------------------------------------
def add_config_arguments(parser) -> None:
    """Add every config knob (plus ``--config``) to an argparse parser.

    Flags are derived from the field metadata, so the CLI surface is a
    projection of :class:`SessionConfig` — there is no second list of
    flags to keep in sync.  Defaults are ``argparse.SUPPRESS`` so only
    flags the user actually passed enter the CLI layer (which is what
    lets file/env values show through unless overridden).  Flags are
    never abbreviated, so a retired flag (``--sparsity``) is an error
    instead of a prefix of a live one (``--sparsity-ratio``).
    """
    import argparse

    parser.allow_abbrev = False
    parser.add_argument(
        "--config", metavar="PATH", default=None,
        help="layered config file (TOML, or .json); flags given on the "
             "command line override it, which overrides REPRO_* "
             "environment variables")
    parser.add_argument(
        "--profile", metavar="NAME", default=None,
        help="named [profile.NAME] overlay from the --config file, "
             "merged over its base sections (env and flags still win)")
    for spec in _FIELD_SPECS:
        if not spec.cli:
            continue
        kwargs: Dict[str, Any] = {
            "dest": spec.key,
            "default": argparse.SUPPRESS,
            "help": spec.help + f" [env: {spec.env}]",
        }
        if spec.kind == "bool":
            kwargs["action"] = "store_true"
        else:
            if spec.kind in ("int", "optint"):
                kwargs["type"] = int
            elif spec.kind == "float":
                kwargs["type"] = float
            choices = spec.resolved_choices()
            if choices:
                kwargs["choices"] = choices
            if spec.metavar:
                kwargs["metavar"] = spec.metavar
        parser.add_argument(spec.flag, **kwargs)


def cli_overrides(args) -> Dict[str, Any]:
    """The flat CLI layer: every config flag the user explicitly passed."""
    return {
        key: getattr(args, key)
        for key in _SPECS_BY_KEY
        if hasattr(args, key)
    }


def config_from_args(args) -> SessionConfig:
    """The fully-resolved config for a parsed CLI namespace."""
    return SessionConfig.resolve(
        file=getattr(args, "config", None),
        profile=getattr(args, "profile", None),
        cli=cli_overrides(args),
    )
