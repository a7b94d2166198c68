package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/flashmark/flashmark/internal/counterfeit"
)

// TestServersShareLoaderPool drives two Servers at once with NAND and
// NOR chips. Both draw their chip loaders from the one process-wide
// free list, and the devices a loader returns alias its storage, so a loader
// handed to two screenings at once would corrupt a verdict: every
// concurrent answer must be byte-identical to the chip's serial answer.
// Run it under -race.
func TestServersShareLoaderPool(t *testing.T) {
	chips := [][]byte{
		nandChipBytes(t, counterfeit.ClassGenuineAccept, 0x5101, 5101),
		chipBytes(t, counterfeit.ClassGenuineAccept, 0x5102, 5102),
		nandBlank(t, 0x5103),
		chipBytes(t, counterfeit.ClassRecycled, 0x5104, 5104),
	}
	var servers [2]*Server
	for i := range servers {
		s, err := New(Config{Verifier: testVerifier(), Workers: 2, CacheEntries: -1})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = s
	}
	verify := func(s *Server, chip []byte) ([]byte, error) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/verify", bytes.NewReader(chip))
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes(), nil
	}
	want := make([][]byte, len(chips))
	for i, chip := range chips {
		body, err := verify(servers[0], chip)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = body
	}

	const clientsPerServer = 2
	var wg sync.WaitGroup
	errs := make(chan error, len(servers)*clientsPerServer*len(chips))
	for si, s := range servers {
		for c := 0; c < clientsPerServer; c++ {
			wg.Add(1)
			go func(s *Server, offset int) {
				defer wg.Done()
				for k := range chips {
					i := (k + offset) % len(chips)
					got, err := verify(s, chips[i])
					if err == nil && !bytes.Equal(got, want[i]) {
						err = fmt.Errorf("chip %d: concurrent answer %s, serial answer %s", i, got, want[i])
					}
					if err != nil {
						errs <- err
					}
				}
			}(s, si*clientsPerServer+c)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
