package registry

// Registry benchmarks: hot-path lookup latency against a fleet-sized
// index (1M enrolled ids; acceptance: sub-microsecond), plus durable
// group-commit enrollment throughput. TestMemoryLookupAllocFree pins
// the lookup's 0 allocs/op.
//
// Run: make bench-registry
// (equivalently: go test -run xxx -bench 'RegistryLookup|RegistryEnroll' -benchtime 10000x ./internal/registry)

import (
	"sync"
	"testing"
)

// benchFleetKeys is the enrolled-identity count for the lookup
// benchmark — the "1M ids on file" acceptance scale.
const benchFleetKeys = 1_000_000

var (
	benchFleetOnce sync.Once
	benchFleet     *Memory
)

// fleetIndex builds the 1M-key index once across all b.N escalations.
func fleetIndex() *Memory {
	benchFleetOnce.Do(func() {
		benchFleet = NewMemory(0)
		var fp Fingerprint
		for i := uint64(0); i < benchFleetKeys; i++ {
			fp[0], fp[1], fp[2] = byte(i), byte(i>>8), byte(i>>16)
			benchFleet.apply(Enrollment{
				Key:         Key{Manufacturer: "acme", DieID: i},
				Fingerprint: fp,
				Source:      "bench",
			})
		}
	})
	return benchFleet
}

// maxLookupNs is the fleet lookup's acceptance ceiling at
// benchFleetKeys ids. It is checked once a run reaches lookupGateN
// lookups (make bench-registry runs 10000x): shorter runs, the testing
// package's 1-iteration probe among them, time cold first probes.
const (
	maxLookupNs = 1000
	lookupGateN = 10000
)

// BenchmarkRegistryLookup measures the hot read path against 1M
// enrolled ids.
func BenchmarkRegistryLookup(b *testing.B) {
	m := fleetIndex()
	k := Key{Manufacturer: "acme"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Stride through the id space so the probe pattern spans shards
		// and defeats any single-line cache residency.
		k.DieID = uint64(i*2654435761) % benchFleetKeys
		if _, ok := m.Lookup(k); !ok {
			b.Fatal("lookup miss")
		}
	}
	b.StopTimer()
	if ns := b.Elapsed().Nanoseconds() / int64(b.N); b.N >= lookupGateN && ns > maxLookupNs {
		b.Fatalf("lookup %d ns/op at %d keys exceeds the %d ns ceiling", ns, benchFleetKeys, maxLookupNs)
	}
}

// BenchmarkRegistryEnroll measures durable enrollment throughput with
// real fsyncs under parallel load — the group-commit path. The
// appends-per-fsync metric shows how many acknowledgements each fsync
// amortizes.
func BenchmarkRegistryEnroll(b *testing.B) {
	dir := b.TempDir()
	d, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	var next uint64
	var nextMu sync.Mutex
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var fp Fingerprint
		for pb.Next() {
			nextMu.Lock()
			id := next
			next++
			nextMu.Unlock()
			fp[0], fp[1], fp[2], fp[3] = byte(id), byte(id>>8), byte(id>>16), byte(id>>24)
			if _, err := d.Enroll(Enrollment{
				Key:         Key{Manufacturer: "acme", DieID: id},
				Fingerprint: fp,
				Source:      "bench",
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	st := d.Stats()
	perFsync := 0.0
	if st.WALFsyncs > 0 {
		perFsync = float64(st.WALAppends) / float64(st.WALFsyncs)
	}
	b.ReportMetric(perFsync, "appends/fsync")
}
