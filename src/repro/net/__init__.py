"""Geo-scale network substrate: simulator, topology, links, failures.

This package is the stand-in for the paper's Google Cloud deployment.
See ``DESIGN.md`` §2 for the substitution argument.  Scheduled fault
injection (the chaos engine) lives in :mod:`repro.net.chaos`.
"""

from .. import _lazy_exports

__getattr__, __all__ = _lazy_exports(globals(), {
    ".chaos": ("ChaosContext", "CrashFault", "EquivocateFault",
               "FAULT_KINDS", "Fault", "FaultTimeline", "LinkDelayFault",
               "MessageLossFault", "OmissionFault", "PartitionFault",
               "TamperFault", "fault_from_dict", "tamper_message"),
    ".failures": ("FailureModel",),
    ".network": ("Network",),
    ".simulator": ("Simulation", "Timer"),
    ".topology": ("PAPER_REGIONS", "LinkSpec", "Topology"),
})
