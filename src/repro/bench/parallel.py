"""Retired: the multi-process simulation engine that lived here is gone.

The simulator has one event loop (:class:`repro.net.simulator.Simulation`);
host parallelism comes only from the sweep scheduler's process pool
(``repro sweep --jobs N``), which runs whole deployments side by side.
EXPERIMENTS.md, "Parallel engine: the measurement that retired it", has
the measurement behind the removal.

This module holds no code.  It stays only because the perfbench layer map
(``perfbench/layers.py``) lists this path and its harness test asserts
that every listed path exists; ROADMAP item 1's perfbench change deletes
the entry and this file together.
"""
