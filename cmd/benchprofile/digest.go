package main

// wantDigests are the recorded output digests per workload: a hash of
// every dev example's (final SQL, verified, iterations, degraded, failed
// candidate stages) as computed at set-up. A change that alters any
// answer fails the benchmark until the digest here is updated with it.
var wantDigests = map[string]string{
	"spider-dev":   "58b148f85ef7c755",
	"spider-sf5":   "bcb59c97e4fab1cd",
	"serve-open":   "58b148f85ef7c755",
	"serve-writes": "58b148f85ef7c755",
}
