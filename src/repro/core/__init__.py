"""GeoBFT — the paper's primary contribution.

Exports the replica, its configuration, and the supporting sub-protocol
implementations (global sharing lives inside the replica; ordering and
remote view change are standalone, unit-testable components).
"""

from .. import _lazy_exports

__getattr__, __all__ = _lazy_exports(globals(), {
    ".config": ("SHARING_ALL", "SHARING_OPTIMISTIC", "SHARING_SINGLE",
                "GeoBftConfig"),
    ".geobft": ("GeoBftReplica",),
    ".ordering": ("OrderingBuffer",),
    ".remote_view_change": ("RemoteViewChangeManager",),
})
