"""Visitor message encodings (the wire format of the simulated cluster).

Visitors are plain tuples with an integer discriminator first, mirroring
Alg. 3's ``VISIT_TYPE`` switch.  Layouts:

======== ==========================================================
type     payload
======== ==========================================================
ADD      ``(VT_ADD, src, dst, weight, version)`` → owner(src)
RADD     ``(VT_RADD, dst, src, vals, weight, version)`` → owner(dst)
         ``vals`` = tuple of the source vertex's value per program
UPDATE   ``(VT_UPDATE, prog, target, vis_id, vis_val, weight, version)``
INIT     ``(VT_INIT, prog, target, payload, version)``
DEL      ``(VT_DEL, src, dst, version)`` → owner(src)
RDEL     ``(VT_RDEL, dst, src, vals, version)`` → owner(dst)
CTRL     ``(VT_CTRL, subtype, ...)`` — control plane (probes, reports,
         snapshot cut/harvest); never counted by termination detection
======== ==========================================================

``version`` is the snapshot-version tag of §III-D: topology events carry
their stream's current version, and every algorithmic event inherits the
version of the event that caused it.
"""

from __future__ import annotations

VT_ADD = 0
VT_RADD = 1
VT_UPDATE = 2
VT_INIT = 3
VT_DEL = 4
VT_RDEL = 5
VT_CTRL = 6

# control-plane subtypes
CTRL_PROBE = 0  # coordinator -> rank: report your counters for a label cut
CTRL_REPORT = 1  # rank -> coordinator: (wave, rank, sent, recv, idle)
CTRL_CUT = 2  # coordinator -> rank: begin snapshot version v
CTRL_HARVEST = 3  # coordinator -> rank: pack & return prev-version state
CTRL_PART = 4  # rank -> coordinator: one rank's snapshot fragment

# The rank that runs collection waves and owns cluster-wide instants
# (trace marks, bulk de-opt counts).
COORDINATOR_RANK = 0
