"""Link-level simulator for omnidirectional space-time block codes.

Builds channel-independently precoded low-dimensional STBCs on top of
Zadoff-Chu phase sequences, verifies their omnidirectionality and
per-antenna power properties, and estimates bit error rates over one-ring
spatially correlated Rayleigh channels with a deterministic seeded Monte
Carlo engine.
"""

__version__ = "0.1.0"
