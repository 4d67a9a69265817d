"""Reference implementations the shipped fast paths are tested against.

Each oracle is a subclass of a shipped simulator that overrides one
hook with the original, slower loop, kept verbatim:

* :mod:`tests.oracle.serving` — ``ReferenceServingSimulator``, the
  per-request serving event loop behind ``ServingSimulator._replay``
  (shipped: :func:`repro.serving.fastserve.replay_serving`);
* :mod:`tests.oracle.cluster` — ``ReferenceClusterSimulator``, the
  router's event loop behind ``ClusterSimulator._replay`` (shipped:
  :func:`repro.serving.fastserve.replay_cluster`);
* :mod:`tests.oracle.continuous` — ``ReferenceContinuousSimulator``,
  the step-at-a-time engine loop behind
  ``ContinuousBatchingSimulator._run_core``.

Sweeps build their simulators internally; :func:`use_reference_loops`
patches the serving and cluster hooks so a whole sweep runs on the
oracles — for one test (pass ``monkeypatch.setattr``) or for the rest
of a throwaway interpreter (the default, plain ``setattr``).
"""


def use_reference_loops(patch=setattr) -> None:
    """Route every serving and cluster simulator through its oracle
    loop, patching the two hooks with ``patch(cls, name, value)``."""
    from repro.cluster.cluster import ClusterSimulator
    from repro.serving.server import ServingSimulator
    from tests.oracle.cluster import ReferenceClusterSimulator
    from tests.oracle.serving import ReferenceServingSimulator

    patch(ServingSimulator, "_replay", ReferenceServingSimulator._replay)
    patch(ClusterSimulator, "_replay", ReferenceClusterSimulator._replay)
