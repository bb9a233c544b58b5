"""Static data race detection driven by history digests, with a bounded
concrete-semantics oracle for validating every abstraction."""

__version__ = "0.1.0"
