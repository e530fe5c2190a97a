"""Compressed sensing with coherent tight frames.

Construct tight frames and measurement models, compute frame-adapted
restricted isometry constants exactly at desk scale, evaluate
recovery-guarantee constants and applicability certificates, solve the
l1/lq/l0 analysis-recovery programs, and audit the guarantee machinery on
concrete instances.
"""

__version__ = "0.1.0"
