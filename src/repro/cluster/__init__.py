"""Cluster membership as a first-class, epoch'd abstraction.

The :class:`~repro.cluster.view.ClusterView` wraps the shared
:class:`~repro.core.types.ClusterMap` with a ring generation, a
reshard descriptor and an explicit transition log, so that every
reconfiguration — failover repairs, replica joins, §V transitions,
and online resharding — is a named, versioned *view transition*
rather than an ad-hoc epoch bump.  A
:class:`~repro.cluster.window.ReshardWindow` is the open reshard
window as every controlet, client and ordering authority holds it.  The
:class:`~repro.cluster.migrate.MigrationPump` drives the per-key
copy phase of a reshard on top of the shared one-in-flight
:class:`~repro.core.controlet.Pump` primitive.
"""

import importlib

from repro.cluster.window import ReshardWindow, WindowAuthority

__all__ = [
    "ClusterView",
    "ViewTransition",
    "ReshardWindow",
    "WindowAuthority",
    "MigrationPump",
    "RESHARD_ADD",
    "RESHARD_REMOVE",
]


def __getattr__(name: str):
    # view and migrate import the controlets, which import the window
    # type from this package: load them on first use
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = "migrate" if name == "MigrationPump" else "view"
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
