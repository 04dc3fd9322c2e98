"""Calibrated constants for the simulated cloud.

Every number here is either taken directly from the paper (Table 2
latencies, AWS prices quoted in Section 6.2.3) or back-derived from a
reported result (compute-cost factors from Figures 4 and 5, invocation
dispatch cost from the Monte-Carlo speedup of Figure 2b).  Provenance
is noted next to each value.  Benchmarks and tests must read these
constants rather than hard-coding numbers, so a re-calibration sweeps
the whole reproduction consistently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.latency import LatencyModel

MICROS = 1e-6
MILLIS = 1e-3

# ---------------------------------------------------------------------------
# Storage-service latencies (Table 2, 1 KB payloads, us-east-1 VPC)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StorageLatencies:
    """Latency models for the storage substrates we compare."""

    # S3: 34,868 us PUT / 23,072 us GET; heavy right tail drives the
    # variability of the S3-polling bars in Fig. 6.
    s3_put: LatencyModel = LatencyModel(34_868 * MICROS, sigma=0.30,
                                        bandwidth=85e6)
    s3_get: LatencyModel = LatencyModel(23_072 * MICROS, sigma=0.30,
                                        bandwidth=85e6)
    #: Extra delay before a freshly PUT key is visible to LIST/polling
    #: readers (S3 was eventually consistent in 2019; Section 6.3.1).
    s3_visibility_lag: float = 80 * MILLIS

    # Redis / Infinispan latencies are *decomposed* into network +
    # service terms in RedisTimings / GridTimings below, so closed-loop
    # throughput (Fig. 2a) and sequential latency (Table 2) come from
    # one consistent model.

    # SQS/SNS: "hundreds of milliseconds" (Section 1); send is tens of
    # ms, and delivery to a polling consumer adds the poll interval.
    sqs_send: LatencyModel = LatencyModel(15 * MILLIS, sigma=0.25)
    sqs_receive: LatencyModel = LatencyModel(15 * MILLIS, sigma=0.25)
    #: Lag until a sent message is returnable by a receive.  SQS
    #: samples a subset of its hosts per receive, so end-to-end
    #: delivery shows a heavy tail of hundreds of milliseconds — the
    #: reason SQS-based synchronization is the slowest in Fig. 6.
    sqs_delivery_lag: LatencyModel = LatencyModel(250 * MILLIS, sigma=0.5)
    sns_publish: LatencyModel = LatencyModel(30 * MILLIS, sigma=0.30)


# ---------------------------------------------------------------------------
# DSO layer (Table 2 rows "Crucial" / "Crucial rf=2")
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DsoTimings:
    """Decomposition of the ~230 us Crucial op into network + service.

    One-way client<->server latency of 100 us plus ~30 us of server
    work reproduces Table 2's 229/231 us round trip; with rf=2 the SMR
    path adds two inter-replica hops of 65 us (the total-order round)
    plus 150 us of replica-side work, doubling latency to ~505-512 us,
    as reported.

    Full *method invocations* (Fig. 2a) additionally pay reflection /
    AspectJ-proxy / locking overhead at the server
    (``method_call_overhead``), back-derived from Fig. 2a's "Redis is
    50% faster for base operations" with 200 closed-loop threads.
    """

    client_server: LatencyModel = LatencyModel(100 * MICROS, sigma=0.05,
                                               bandwidth=1.2e9)
    replica_replica: LatencyModel = LatencyModel(65 * MICROS, sigma=0.05,
                                                 bandwidth=1.2e9)
    #: Server work for a raw 1KB GET / PUT (Table 2 path).
    get_service: float = 29 * MICROS
    put_service: float = 31 * MICROS
    #: Per-method-invocation server overhead (dispatch, reflection,
    #: per-object lock) for shipped method calls.
    method_call_overhead: float = 95 * MICROS
    #: Extra per-replica work to order an op with SMR (Skeen rounds,
    #: interceptor stack).
    smr_replica_overhead: float = 150 * MICROS
    #: One arithmetic micro-op of the Fig. 2a workload (JVM-jitted).
    simple_op_cost: float = 0.05 * MICROS
    #: Worker threads per DSO node (r5.2xlarge has 8 vCPUs).
    node_workers: int = 8
    #: Time to detect a crashed peer (view-synchrony failure detector).
    failure_detection: float = 4.0
    #: Extra budget clients keep retrying transient failures beyond
    #: detection + view installation: covers retry backoff quantisation
    #: and the rebalancer re-homing the object after a view change.
    retry_grace: float = 8.0
    #: Client retry schedule for transient DSO failures: exponential
    #: backoff starting at ``retry_backoff``, multiplied by
    #: ``retry_backoff_multiplier`` per attempt, capped at
    #: ``retry_backoff_max``, with up to ``retry_jitter`` (fraction)
    #: of deterministic seeded jitter to de-synchronize retry storms.
    retry_backoff: float = 0.25
    retry_backoff_multiplier: float = 2.0
    retry_backoff_max: float = 4.0
    retry_jitter: float = 0.1
    #: Per-container cap on the exactly-once session table (distinct
    #: client sessions remembered for duplicate suppression).  When
    #: exceeded, the least-recently-active fully-acknowledged session
    #: is evicted first.
    session_table_max: int = 4096
    #: Validity window of a client read lease (see repro.dso.cache).
    #: A mutating invocation that cannot reach a lease holder must
    #: wait out the remainder of this window before acknowledging, so
    #: the TTL bounds write stalls under partitions; it also bounds
    #: how long a cache entry can survive without re-contacting the
    #: primary.  Leases only exist when the read cache is enabled
    #: (``DsoLayer(read_cache=True)``); the default deployment ships
    #: every read, matching the paper and the Table 2 calibration.
    lease_ttl: float = 5.0
    #: Local service time of a cache hit (lookup + deserialization at
    #: the function host — the "hundreds of microseconds down to
    #: microseconds" step Cloudburst reports for host-local caches).
    cache_hit_overhead: float = 2 * MICROS
    #: Per-endpoint cap on cached objects (LRU beyond this).
    cache_max_objects: int = 256
    #: Client-side pipelining (``DsoLayer.invoke_async``): a flushed
    #: batch carries up to ``pipeline_max_batch`` ops, and a partial
    #: batch waits at most ``pipeline_flush_window`` of virtual time
    #: for more ops before shipping.  The window is sized to one
    #: client<->server round trip: pipelined submitters refill the
    #: queue faster than that, and latency-sensitive callers flush
    #: explicitly (``future.result()`` flushes immediately).
    pipeline_max_batch: int = 32
    pipeline_flush_window: float = 200 * MICROS
    #: Committed versions a transactional cell (repro.dso.txn.TxnCell)
    #: retains per key.  A reader needing atomic visibility can fall
    #: back to any retained version; deeper histories tolerate longer
    #: read/write skew before a reader must abort, at the price of
    #: memory.  AFT similarly bounds its per-key version history.
    txn_history: int = 8
    #: Per-object state-transfer cost during rebalancing (includes the
    #: deliberate throttling real grids apply so rebalance does not
    #: starve foreground traffic), plus a fixed view-installation
    #: pause.  Together these stretch the Fig. 8 recovery over tens of
    #: seconds, as the paper observes.
    transfer_per_object: float = 250 * MILLIS
    view_change_pause: float = 250 * MILLIS


@dataclass(frozen=True)
class GridTimings:
    """The Infinispan key-value path (Table 2 rows "Infinispan").

    Same network as the DSO layer (it *is* the same grid) but without
    the object-layer dispatch: 100 us hops + 7/28 us service give the
    207/228 us GET/PUT of Table 2.
    """

    client_server: LatencyModel = LatencyModel(100 * MICROS, sigma=0.05,
                                               bandwidth=1.2e9)
    get_service: float = 7 * MICROS
    put_service: float = 28 * MICROS
    node_workers: int = 8


# ---------------------------------------------------------------------------
# Redis-as-DSO baseline (Fig. 2a / Fig. 5 "Crucial + Redis")
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RedisTimings:
    """The Redis server is single-threaded; scripts run sequentially.

    Redis's optimized C core makes its per-op fixed cost far lower than
    the DSO's JVM dispatch path ("Redis is 50% faster for base
    operations") but the single event loop serializes complex scripted
    operations, producing the ~5x crossover of Fig. 2a.  110 us hops +
    9/12 us service reproduce Table 2's 229/232 us GET/PUT.
    """

    client_server: LatencyModel = LatencyModel(110 * MICROS, sigma=0.05,
                                               bandwidth=1.2e9)
    get_service: float = 9 * MICROS
    put_service: float = 12 * MICROS
    #: Per-script fixed overhead (Lua VM entry).
    script_overhead: float = 8 * MICROS
    #: One arithmetic op inside a Lua script (interpreted).
    simple_op_cost: float = 0.04 * MICROS
    #: Marshalling one numeric element through a Lua script (the
    #: dominant cost of the "Crucial + Redis" k-means variant: every
    #: centroid coordinate crosses the Lua boundary on one thread).
    lua_per_element: float = 2.0 * MICROS


# ---------------------------------------------------------------------------
# FaaS platform (AWS Lambda, Section 2.1 limits)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaasLimits:
    max_memory_mb: int = 3008          # cap at the time of writing
    max_duration: float = 15 * 60.0    # 15-minute invocation limit
    #: Memory that buys one full vCPU (footnote 7).
    full_vcpu_memory_mb: int = 1792
    #: Account-level concurrent-execution limit.
    max_concurrency: int = 3000


@dataclass(frozen=True)
class FaasTimings:
    #: Client-side dispatch per synchronous invocation (SDK call,
    #: payload marshalling).  Back-derived from Fig. 2b: a ~4.5 ms
    #: serial dispatch per thread yields the reported 512x speedup at
    #: 800 threads for ~6 s tasks.
    dispatch_overhead: float = 4.5 * MILLIS
    #: Network + queueing until the handler starts on a warm container.
    warm_start: LatencyModel = LatencyModel(12 * MILLIS, sigma=0.20)
    #: Cold container provisioning: "1 to 2 seconds of invocation
    #: delay" (Section 6.3.3).
    cold_start: LatencyModel = LatencyModel(1.4, sigma=0.15)
    #: Return-path latency for the (empty) response payload.
    response: LatencyModel = LatencyModel(8 * MILLIS, sigma=0.20)
    #: How long an idle container stays warm.
    keep_alive: float = 15 * 60.0


# ---------------------------------------------------------------------------
# Spark baseline (EMR cluster, Section 6.2.2 setup)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SparkTimings:
    """Timing model of the mini-Spark BSP engine.

    Per-task and per-stage overheads are standard Spark magnitudes;
    the per-iteration MLlib overheads are calibrated so the Fig. 4/5
    Crucial-vs-Spark gaps land where the paper reports them (LR: 62.3
    vs 75.9 s over 100 iterations; k-means k=25: 20.4 vs 34 s over 10).
    MLlib's k-means runs several jobs per iteration (assignment,
    update, cost), hence its larger fixed cost versus LR's single
    treeAggregate.
    """

    #: Driver-side cost to submit a stage (DAG scheduling).
    stage_submit: float = 30 * MILLIS
    #: Per-task launch cost (serialize closure, dispatch, deserialize).
    task_launch: float = 2 * MILLIS
    #: Executor <-> driver link.
    cluster_link: LatencyModel = LatencyModel(150 * MICROS, sigma=0.10,
                                              bandwidth=1.1e9)
    #: Fixed extra per-iteration cost of MLlib's k-means loop
    #: (multiple jobs + collect + broadcast per iteration).
    mllib_kmeans_iteration_overhead: float = 1.05
    #: Fixed extra per-iteration cost of LogisticRegressionWithSGD
    #: (one treeAggregate round).
    mllib_logreg_iteration_overhead: float = 0.105
    #: EMR cluster shape used in the paper.
    worker_nodes: int = 10
    cores_per_worker: int = 8


# ---------------------------------------------------------------------------
# AWS prices (Section 6.2.3, on-demand, us-east-1, 2019)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AwsPrices:
    """Every price the simulation bills, in one table (capacity
    prices from the ``HW_PARAMETERS`` table: RAM is ~250x dearer per
    GB than S3)."""

    lambda_gb_second: float = 0.0000166667
    lambda_per_request: float = 0.20 / 1e6
    ec2_m5_2xlarge_hour: float = 0.384
    ec2_r5_2xlarge_hour: float = 0.504
    emr_m5_2xlarge_hour: float = 0.096  # EMR surcharge per core node
    s3_get_per_1000: float = 0.0004
    s3_put_per_1000: float = 0.005
    s3_dollars_per_gb_month: float = 0.023
    gp3_dollars_per_gb_month: float = 0.081
    #: RAM rent at the r5.2xlarge rate: 0.504 $/h / 64 GB * 730 h.
    memory_dollars_per_gb_month: float = 5.75

    def lambda_dollars(self, gb_seconds: float, requests: int = 0) -> float:
        """The Lambda bill for ``gb_seconds`` and ``requests``."""
        return (gb_seconds * self.lambda_gb_second
                + requests * self.lambda_per_request)

    def node_dollars(self, node_seconds: float, hourly: float) -> float:
        """Rent for ``node_seconds`` of instances priced ``hourly``."""
        return node_seconds * hourly / 3600.0


# ---------------------------------------------------------------------------
# ML compute-cost model (back-derived from Figs. 4 and 5)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComputeCosts:
    """Seconds of single-vCPU time per elementary ML operation.

    k-means: distance evaluation cost per (point x dimension x
    centroid).  Calibrated from Fig. 5, k=25: 695k points/worker x 100
    dims x 25 centroids at 1.117e-9 s = 1.94 s/iteration, which plus
    synchronization reproduces Crucial's 20.4 s for 10 iterations.

    Logistic regression: per (point x feature) gradient cost from
    Fig. 4a: 0.50 s/iteration compute for 695k x 100 at 2 flops.
    Spark executors pay a slightly higher per-op cost (JVM/RDD
    overhead) plus the per-iteration reduce modelled in sparklike.
    """

    kmeans_point_dim_cluster: float = 1.15e-9
    logreg_point_feature: float = 8.0e-9
    spark_compute_inflation: float = 1.08
    #: Parsing one input byte into numeric rows (dominates the "load
    #: and parse" phase both systems pay; back-derived from Table 3's
    #: total-minus-iteration times).
    parse_per_byte: float = 4.2e-8
    #: Spark's loader is slower per byte (row objects, boxing, GC).
    spark_parse_inflation: float = 2.0
    #: Drawing one Monte-Carlo point (Fig. 2b: ~16.4M draws/s/thread).
    montecarlo_draw: float = 1.0 / 16.4e6
    #: One k-means inference (read 200 centroids + distances), compute
    #: part only; drives Fig. 8's ~490 inferences/s with 100 threads.
    inference_compute: float = 2.0 * MILLIS


# ---------------------------------------------------------------------------
# Storage tiers (HW_PARAMETERS seed data: S3 vs gp3 vs in-memory)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TieringSettings:
    """Storage-tier latencies (from the ``HW_PARAMETERS`` table: gp3
    at 1-2 ms with a 125 MB/s cap, memory at grid latency; their prices
    are in :class:`AwsPrices`), plus the heat/migration policy knobs of
    :class:`repro.storage.TieredStore`."""

    #: gp3 block tier: 1-2 ms per request, free requests, throughput
    #: capped at 125 MB/s.
    gp3_get: LatencyModel = LatencyModel(1.4 * MILLIS, sigma=0.12,
                                         bandwidth=125e6)
    gp3_put: LatencyModel = LatencyModel(1.6 * MILLIS, sigma=0.12,
                                         bandwidth=125e6)
    #: In-memory tier next to compute: same 100 us hops as the data
    #: grid plus a few us of service.
    memory_get: LatencyModel = LatencyModel(207 * MICROS, sigma=0.05,
                                            bandwidth=1.2e9)
    memory_put: LatencyModel = LatencyModel(228 * MICROS, sigma=0.05,
                                            bandwidth=1.2e9)

    # -- TieredStore heat/migration policy ---------------------------------
    #: Bytes the hot tier may hold before the sweeper demotes the
    #: least-recently-used objects to the next tier.
    hot_capacity_bytes: int = 64 * 10 ** 6
    #: Idle time after which an object is demotion-eligible even when
    #: the hot tier has room (cold data should not pay memory rent).
    demote_after: float = 30.0
    #: Accesses within the heat window that promote a cold object back
    #: next to compute.
    promote_hits: int = 2
    #: Sliding window over which accesses count toward promotion.
    heat_window: float = 10.0
    #: Period of the background migration sweep.
    sweep_period: float = 5.0


# ---------------------------------------------------------------------------
# Dataset (Section 6.2.2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetSpec:
    """The spark-perf dataset: 100 GB, 55.6M elements, 100 features."""

    nominal_points: int = 55_600_000
    features: int = 100
    nominal_bytes: int = 100 * 10 ** 9
    partitions: int = 80


@dataclass(frozen=True)
class Config:
    """Root configuration: one object wires a whole simulated cloud."""

    storage: StorageLatencies = field(default_factory=StorageLatencies)
    dso: DsoTimings = field(default_factory=DsoTimings)
    grid: GridTimings = field(default_factory=GridTimings)
    redis: RedisTimings = field(default_factory=RedisTimings)
    spark: SparkTimings = field(default_factory=SparkTimings)
    faas_limits: FaasLimits = field(default_factory=FaasLimits)
    faas_timings: FaasTimings = field(default_factory=FaasTimings)
    prices: AwsPrices = field(default_factory=AwsPrices)
    compute: ComputeCosts = field(default_factory=ComputeCosts)
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    tiering: TieringSettings = field(default_factory=TieringSettings)


DEFAULT_CONFIG = Config()
