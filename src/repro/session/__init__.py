"""repro.session — the unified public API of the measurement stack.

One typed config, one lifecycle facade::

    from repro.session import Session, SessionConfig

    with Session.from_file("repro.toml") as s:
        report = s.run("alexnet")
        print(report.total_cycles, report.to_json())

:class:`SessionConfig` is a frozen dataclass with six sections
(architecture, engine, cache, fleet, tuning, observability) and
layered construction —
``from_file`` (TOML/JSON), ``from_env`` (``REPRO_*``), ``from_dict``,
explicit kwargs — merged with the documented precedence
``CLI > kwargs > env > file > defaults``.  The CLI's flags are derived
from its field metadata (:func:`add_config_arguments`), so the flag
surface and the config object cannot drift apart.

:class:`Session` owns every resource (evaluation engine, cache tiers,
fleet client, packed-func registration), exposes ``run`` / ``run_graph``
/ ``tune`` / ``compare`` returning structured
:class:`RunReport` / :class:`TuneReport` / :class:`CompareReport`
objects with ``to_json``/``from_json``, and guarantees deterministic
teardown via ``close()`` / the context-manager protocol.

It is the one place execution is configured: the Listing-1 runners in
:mod:`repro.bifrost` take a session (or its ``.api``) and run on the
engine it built.

The names above load lazily, each with its submodule on first lookup
(:func:`repro._lazy.lazy_exports`), so a CLI command that only
resolves the config (``repro config show``) never imports the session
facade or the report types.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "config": (
        "ARCHITECTURES", "ArchitectureConfig", "CacheConfig", "EngineConfig",
        "FieldSpec", "FleetConfig", "ObservabilityConfig", "SessionConfig",
        "TuningConfig", "add_config_arguments", "cli_overrides",
        "config_from_args", "env_overrides", "field_specs", "known_keys",
        "load_profiles", "render_profiles_toml",
    ),
    "reports": ("CompareReport", "RunReport", "TuneReport"),
    "session": ("Session", "ZOO_MODELS", "zoo_layers"),
})
