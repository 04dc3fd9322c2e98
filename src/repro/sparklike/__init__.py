"""A miniature Spark: the dedicated-cluster baseline of Section 6.2.

Driver + executors on provisioned VMs, partitioned datasets, lazy-free
eager stages with per-task scheduling costs, broadcast variables, and
reduce/treeAggregate back to the driver — the BSP pattern whose
per-iteration reduce phase Crucial's in-store aggregation avoids.
"""

from repro.sparklike.cluster import SparkCluster, run_on_spark
from repro.sparklike.rdd import RDD, Broadcast
from repro.sparklike.mllib import KMeansMLlib, LogisticRegressionWithSGD

__all__ = [
    "SparkCluster",
    "run_on_spark",
    "RDD",
    "Broadcast",
    "KMeansMLlib",
    "LogisticRegressionWithSGD",
]
