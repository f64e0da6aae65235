"""Frame-driven simulator of QoS uplink packet scheduling in an
802.16-style point-to-multipoint cell.

A base station allocates per-frame uplink bytes in two phases (guaranteed
minimums, then weighted excess distribution) and pools the awards per
subscriber station; each station spends its grant through a class hierarchy
of schedulers (UGS first, earliest-deadline rtPS, deficit rounds over nrtPS
and BE).  Two baselines ship alongside: a strict-priority station scheduler
and per-connection grants with no station scheduler at all.

Callers import names from the modules that define them; the package itself
binds only ``parse_config``.
"""

from .config import parse_config

__all__ = ["parse_config"]
