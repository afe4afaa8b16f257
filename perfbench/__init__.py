"""Outside-in benchmark of the QoS switch simulator (see README.md)."""
