package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"github.com/flashmark/flashmark/internal/challenge"
	"github.com/flashmark/flashmark/internal/cluster"
	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/registry"
	"github.com/flashmark/flashmark/internal/service"
	"github.com/flashmark/flashmark/internal/wmcode"
)

// world is one running verification plane: the provenance store (a
// single-node durable registry, or two replicated shards behind
// cluster.Client) and the fmverifyd service mounted on a loopback HTTP
// listener, all in this process.
//
// The closed-loop workloads send each chip once per pass through their
// list and get a fresh service.Server per pass, so the verdict cache is
// empty for every chip: X-Bench-Pass picks the server. The store is
// shared by every pass.
type world struct {
	dir string
	tr  *tracer  // nil for untraced runs
	log *os.File // the daemon's request log

	durable *registry.Durable
	shards  []*shard
	client  *cluster.Client
	store   registry.Store
	cfg     service.Config

	mu       sync.Mutex
	servers  []*service.Server
	handlers []http.Handler

	hs   *http.Server
	done chan error
	url  string
}

// shard is one primary/follower pair of registry nodes.
type shard struct {
	nodes  [2]*cluster.Node
	stores [2]*registry.Durable
	served [2]chan error
}

type worldOpts struct {
	cluster   bool
	challenge bool
	traced    bool
}

func startWorld(dir string, o worldOpts) (*world, error) {
	w := &world{dir: dir}
	if o.traced {
		w.tr = newTracer()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// fmverifyd logs a line per request to stderr; here the lines go to
	// a file, so the cost of formatting and writing them is measured.
	logFile, err := os.Create(filepath.Join(dir, "fmverifyd.log"))
	if err != nil {
		return nil, err
	}
	w.log = logFile
	logger := log.New(logFile, "fmverifyd: ", log.LstdFlags)
	if err := w.openStore(o.cluster, logger.Printf); err != nil {
		w.close()
		return nil, err
	}
	w.cfg = service.Config{
		// fmverifyd's flag defaults with -mfg set: recycling screen on,
		// GOMAXPROCS workers, default queue, cache and timeout.
		Verifier: counterfeit.Verifier{
			Codec:          wmcode.Codec{Key: []byte(watermarkKey)},
			Manufacturer:   manufacturer,
			CheckRecycling: true,
		},
		Provenance: w.store,
		Logf:       logger.Printf,
	}
	if o.challenge {
		w.cfg.Challenge = &challenge.Policy{}
	}
	if w.tr != nil {
		w.cfg.Decorate = w.tr.decorate
	}
	if _, err := w.handler(0); err != nil {
		w.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.close()
		return nil, err
	}
	w.url = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: http.HandlerFunc(w.route), ReadHeaderTimeout: 10 * time.Second}
	w.done = make(chan error, 1)
	go func() { w.done <- w.hs.Serve(ln) }()
	return w, nil
}

func (w *world) openStore(sharded bool, logf func(string, ...any)) error {
	if !sharded {
		d, err := registry.Open(filepath.Join(w.dir, "registry"), registry.Options{})
		if err != nil {
			return err
		}
		w.durable = d
		w.store = d
		if w.tr != nil {
			w.store = tracedDurable{Durable: d, t: w.tr}
		}
		return nil
	}
	// Two shards, each a primary replicating synchronously to one
	// follower with fencing on: fmregistryd's production shape.
	var spec []cluster.ShardSpec
	for i := 0; i < 2; i++ {
		sh := &shard{}
		w.shards = append(w.shards, sh)
		var addrs [2]string
		for _, j := range []int{1, 0} {
			st, err := registry.Open(filepath.Join(w.dir, fmt.Sprintf("shard%d-%d", i, j)), registry.Options{})
			if err != nil {
				return err
			}
			sh.stores[j] = st
			cfg := cluster.NodeConfig{Store: st, Role: cluster.RoleFollower, Logf: logf}
			if j == 0 {
				cfg = cluster.NodeConfig{Store: st, Role: cluster.RolePrimary, FollowerAddr: addrs[1], RequireFollower: true, Logf: logf}
			}
			n, err := cluster.NewNode(cfg)
			if err != nil {
				return err
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			addrs[j] = ln.Addr().String()
			sh.nodes[j] = n
			sh.served[j] = make(chan error, 1)
			go func(n *cluster.Node, ln net.Listener, c chan error) { c <- n.Serve(ln) }(n, ln, sh.served[j])
		}
		spec = append(spec, cluster.ShardSpec{Primary: addrs[0], Follower: addrs[1]})
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, sh := range w.shards {
		for !sh.nodes[0].LinkUp() {
			if time.Now().After(deadline) {
				return errors.New("cluster follower link never came up")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	c, err := cluster.NewClient(spec, cluster.ClientOptions{Logf: logf})
	if err != nil {
		return err
	}
	w.client = c
	w.store = c
	if w.tr != nil {
		w.store = tracedCluster{Client: c, t: w.tr}
	}
	return nil
}

// handler returns the handler of pass p's server, creating fresh
// servers as needed.
func (w *world) handler(p int) (http.Handler, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.servers) <= p {
		srv, err := service.New(w.cfg)
		if err != nil {
			return nil, err
		}
		var h http.Handler = srv.Handler()
		if w.tr != nil {
			h = w.tr.wrapHandler(h)
		}
		w.servers = append(w.servers, srv)
		w.handlers = append(w.handlers, h)
	}
	return w.handlers[p], nil
}

func (w *world) route(rw http.ResponseWriter, r *http.Request) {
	p, _ := strconv.Atoi(r.Header.Get("X-Bench-Pass"))
	h, err := w.handler(p)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	h.ServeHTTP(rw, r)
}

// allServers snapshots the servers created so far.
func (w *world) allServers() []*service.Server {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]*service.Server(nil), w.servers...)
}

// close stops the listener, drains every server, closes the registry
// and removes the world's files.
func (w *world) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if w.hs != nil {
		_ = w.hs.Shutdown(ctx)
		<-w.done
	}
	for _, s := range w.allServers() {
		_ = s.Drain(ctx)
	}
	if w.client != nil {
		w.client.Close()
	}
	for _, sh := range w.shards {
		for j := range sh.nodes {
			if sh.nodes[j] != nil {
				sh.nodes[j].Close()
				<-sh.served[j]
			}
			if sh.stores[j] != nil {
				sh.stores[j].Close()
			}
		}
	}
	if w.durable != nil {
		w.durable.Close()
	}
	if w.log != nil {
		w.log.Close()
	}
	os.RemoveAll(w.dir)
}

// shardKeys reports how many identities each shard's primary holds.
func (w *world) shardKeys() []int64 {
	var out []int64
	for _, sh := range w.shards {
		out = append(out, sh.stores[0].Stats().Keys)
	}
	return out
}

// storeStats reads the provenance store's counters (summed across
// shards for the cluster).
func (w *world) storeStats() registry.Stats {
	if w.client != nil {
		return w.client.Stats()
	}
	return w.durable.Stats()
}
