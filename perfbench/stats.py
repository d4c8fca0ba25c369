"""Summary rules shared by the benchmark's launcher and worker (stdlib only)."""

import statistics

# percentiles tried for the tail, highest first
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
MIN_BEYOND_TAIL = 10


def summarize(samples):
    """Median and sample count of a list of timings, plus the highest tail
    percentile that has at least ten samples beyond it (nearest rank), or
    no tail when the list is too short for any."""
    values = sorted(samples)
    if not values:
        raise ValueError("no samples to summarize")
    out = {"n": len(values), "median": statistics.median(values)}
    for pct in TAIL_PERCENTILES:
        beyond = int(len(values) * (100.0 - pct) / 100.0 + 1e-9)
        if beyond >= MIN_BEYOND_TAIL:
            out["tail_pct"] = pct
            out["tail"] = values[len(values) - beyond - 1]
            break
    return out


def failed_ratio(attempted, failed):
    """Operations that raised or missed their tolerance, over operations
    attempted."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed count outside [0, attempted]")
    return failed / attempted
