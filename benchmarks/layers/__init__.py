"""The layered benchmark: five workloads, seven end-to-end metrics and
an outside-in host-time ledger per layer.  See README.md."""
