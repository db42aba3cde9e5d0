"""repro -- reproduction of "MPI+Threads: Runtime Contention and Remedies"
(Amer, Lu, Wei, Balaji, Matsuoka; PPoPP 2015) as a discrete-event
simulation of an MPICH-like runtime.

Layered packages:

* :mod:`repro.sim`      -- discrete-event engine (events, processes, RNG)
* :mod:`repro.machine`  -- NUMA topology, thread binding, cost model
* :mod:`repro.locks`    -- mutex / ticket / priority
* :mod:`repro.network`  -- QDR-like fabric, NICs, packets
* :mod:`repro.mpi`      -- miniature MPICH: requests, queues, progress
  engine, global critical section, collectives, RMA, cluster builder
* :mod:`repro.workloads` -- the paper's benchmarks and applications
* :mod:`repro.analysis` -- bias factors, dangling requests, metrics
* :mod:`repro.experiments` -- one runner per paper figure

Quickstart::

    from repro.workloads import run_throughput, throughput_cluster

    cluster = throughput_cluster(lock="ticket", threads_per_rank=8)
    result = run_throughput(cluster)
    print(result.msg_rate_k, "thousand msgs/s")
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
