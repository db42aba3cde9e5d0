"""Miniature MPICH: requests, matching queues, progress engine, global
critical section, collectives, RMA, and the cluster builder."""

from .collectives import (
    Communicator,
    allreduce,
    alltoall,
    barrier,
    bcast,
    reduce,
)
from .envelope import ANY_SOURCE, ANY_TAG, Envelope, matches
from .queues import PostedQueue, UnexpectedMsg, UnexpectedQueue
from .request import Protocol, ReqKind, ReqState, Request, RequestError
from .rma import RmaWindow, allocate_windows
from .runtime import MpiRuntime, MpiThread, RuntimeStats
from .vci import CS_POLICY_KINDS, CsPolicy, parse_cs_policy
from .world import Cluster, ClusterConfig

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Envelope",
    "matches",
    "Request",
    "RequestError",
    "ReqKind",
    "ReqState",
    "Protocol",
    "PostedQueue",
    "UnexpectedQueue",
    "UnexpectedMsg",
    "MpiRuntime",
    "MpiThread",
    "RuntimeStats",
    "Communicator",
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "alltoall",
    "RmaWindow",
    "allocate_windows",
    "Cluster",
    "ClusterConfig",
    "CsPolicy",
    "CS_POLICY_KINDS",
    "parse_cs_policy",
]
