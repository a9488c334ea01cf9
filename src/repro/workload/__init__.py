"""Workload substrate: YCSB/payment generators and traffic drivers."""

from .. import _lazy_exports

__getattr__, __all__ = _lazy_exports(globals(), {
    ".client": ("QuorumClient",),
    ".ycsb": ("YcsbWorkload",),
    ".payment": ("DEFAULT_ACCOUNTS", "PaymentWorkload"),
    ".traffic": ("TRAFFIC_PROCESSES", "OpenLoopSource", "TrafficSpec",
                 "split_users", "traffic_summary"),
    ".zipfian": ("DEFAULT_ZIPFIAN_CONSTANT", "ScrambledZipfianGenerator",
                 "UniformGenerator", "ZipfianGenerator", "make_generator",
                 "zeta"),
})
