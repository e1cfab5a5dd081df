"""Request-pattern clustering and prototype prefetching for VoD traces.

The pipeline: parse web logs into per-client sessions, turn each session
into a binary request pattern over the video base vector, cluster the
patterns with a vigilance-gated adaptive-resonance network, prefetch each
cluster prototype's URLs, and score hits against the next session window.

Each name is imported from the module that defines it: `logs`,
`patterns`, `art1`, `prefetch`, `workload`, `fileio` or `cli`. Importing
the package itself loads none of them.
"""
