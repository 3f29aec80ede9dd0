"""Semi-streaming weighted matching toolkit.

One-pass bucketed matching over geometric weight classes (deterministic,
shifted, and grid-ensemble variants), numerical analysis certificates,
an exact self-certifying matching oracle, instance generators,
preemptive online baselines, and the adversarial lower-bound game they
lose.

The package root exports only ``__version__``; import names from the
submodules (``semimatch.bucket``, ``semimatch.core``, ...).
"""

__version__ = "0.1.0"
