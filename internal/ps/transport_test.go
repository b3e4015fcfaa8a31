package ps

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/model"
)

func oneShardServer(t *testing.T, mode Mode) *Server {
	t.Helper()
	sh, err := NewSharding(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(mode, sh, 0.5, 4)
}

// TestChanTransportRoundTrip drives pull/push through the dispatcher
// goroutine, including concurrent pushers, and checks the closed path.
func TestChanTransportRoundTrip(t *testing.T) {
	srv := oneShardServer(t, ModeAsync)
	ct := NewChanTransport(srv)
	ct.Start()
	defer ct.Stop()

	rep, err := ct.Pull(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shard != 0 || len(rep.Params) != 8 {
		t.Fatalf("pull reply = %+v", rep)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			grad := []float64{1, 0, 0, 0, 0, 0, 0, 0}
			for s := int64(1); s <= 8; s++ {
				if _, err := ct.Push(PushRequest{Shard: 0, Worker: w, Seq: s, Count: 1, Grad: grad}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := srv.StatsSnapshot(); st.Pushes != 32 {
		t.Fatalf("server saw %d pushes, want 32", st.Pushes)
	}
	// Server-side errors travel back through the channel.
	if _, err := ct.Pull(5); err == nil {
		t.Fatal("pull of unknown shard returned no error")
	}
	ct.Stop()
	if _, err := ct.Pull(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("pull after Stop returned %v, want ErrClosed", err)
	}
}

// TestFaultTransportPartition checks the whole-round partition window:
// pulls fail with ErrPartitioned and pushes vanish without an error.
func TestFaultTransportPartition(t *testing.T) {
	srv := oneShardServer(t, ModeAsync)
	in := chaos.NewInjector(chaos.Plan{PartitionFrac: 1}, 1)
	ft := NewFaultTransport(directTransport{srv}, in, 0)
	if !ft.BeginRound() {
		t.Fatal("PartitionFrac=1 round not partitioned")
	}
	if _, err := ft.Pull(0); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned pull returned %v, want ErrPartitioned", err)
	}
	rep, err := ft.Push(PushRequest{Shard: 0, Worker: 0, Seq: 1, Count: 1, Grad: make([]float64, 8)})
	if err != nil {
		t.Fatalf("partitioned push returned error %v (lost pushes are silent)", err)
	}
	if rep.Applied {
		t.Fatal("partitioned push reported applied")
	}
	if st := srv.StatsSnapshot(); st.Pulls != 0 || st.Pushes != 0 {
		t.Fatalf("partitioned traffic reached the server: %+v", st)
	}
}

// TestFaultTransportDuplicate checks the dup fate delivers the push twice
// and the server's dedupe keeps the model at exactly one application.
func TestFaultTransportDuplicate(t *testing.T) {
	srv := oneShardServer(t, ModeAsync)
	in := chaos.NewInjector(chaos.Plan{DupFrac: 1}, 1)
	ft := NewFaultTransport(directTransport{srv}, in, 0)
	ft.BeginRound()
	grad := []float64{2, 0, 0, 0, 0, 0, 0, 0}
	rep, err := ft.Push(PushRequest{Shard: 0, Worker: 0, Seq: 1, Basis: 0, Count: 1, Grad: grad})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Applied {
		t.Fatalf("duplicated push's first delivery reply = %+v, want applied", rep)
	}
	st := srv.StatsSnapshot()
	if st.Pushes != 1 || st.Duplicates != 1 {
		t.Fatalf("stats = %+v, want 1 applied / 1 deduplicated", st)
	}
	pull, _ := srv.Pull(0)
	if math.Abs(pull.Params[0]-(-1)) > 1e-15 {
		t.Fatalf("component 0 = %g, want -1 (dup applied once)", pull.Params[0])
	}
}

// TestFaultTransportDrop checks the drop fate loses the push silently.
func TestFaultTransportDrop(t *testing.T) {
	srv := oneShardServer(t, ModeAsync)
	in := chaos.NewInjector(chaos.Plan{DropFrac: 1}, 1)
	ft := NewFaultTransport(directTransport{srv}, in, 0)
	ft.BeginRound()
	rep, err := ft.Push(PushRequest{Shard: 0, Worker: 0, Seq: 1, Count: 1, Grad: make([]float64, 8)})
	if err != nil || rep.Applied {
		t.Fatalf("dropped push reply = %+v err = %v, want silent loss", rep, err)
	}
	if st := srv.StatsSnapshot(); st.Pushes != 0 {
		t.Fatalf("dropped push reached the server: %+v", st)
	}
}

// directTransport calls the server without a queue — the minimal Transport
// for wrapping tests.
type directTransport struct{ srv *Server }

func (d directTransport) Pull(shard int) (PullReply, error)     { return d.srv.Pull(shard) }
func (d directTransport) Push(r PushRequest) (PushReply, error) { return d.srv.Push(r) }

// TestHTTPTransport exercises the binary frame end to end: pull, push, and
// the 400 mapping that carries the server's own message back as an error.
func TestHTTPTransport(t *testing.T) {
	srv := oneShardServer(t, ModeAsync)
	hs := NewHTTPServer(srv)
	ts := httptest.NewServer(hs.Handler())
	defer ts.Close()
	tr := &HTTPTransport{BaseURL: ts.URL, Client: ts.Client()}

	rep, err := tr.Pull(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != 0 || len(rep.Params) != 8 {
		t.Fatalf("pull reply = %+v", rep)
	}
	grad := []float64{2, 0, 0, 0, 0, 0, 0, 0}
	prep, err := tr.Push(PushRequest{Shard: 0, Worker: 1, Seq: 1, Basis: 0, Count: 1, Grad: grad})
	if err != nil {
		t.Fatal(err)
	}
	if !prep.Applied || prep.Version != 1 {
		t.Fatalf("push reply = %+v, want applied at version 1", prep)
	}
	rep, err = tr.Pull(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Params[0]-(-1)) > 1e-15 {
		t.Fatalf("component 0 over HTTP = %g, want -1", rep.Params[0])
	}
	// Server-side validation surfaces as an error with the server's message.
	if _, err := tr.Pull(9); err == nil {
		t.Fatal("pull of unknown shard over HTTP returned no error")
	}
	if _, err := tr.Push(PushRequest{Shard: 0, Worker: 99, Seq: 2, Count: 1, Grad: grad}); err == nil {
		t.Fatal("push from unknown worker over HTTP returned no error")
	}
	// A NaN crosses the wire intact, so it is the server that refuses it.
	grad[3] = math.NaN()
	if _, err := tr.Push(PushRequest{Shard: 0, Worker: 1, Seq: 2, Count: 1, Grad: grad}); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("NaN push over HTTP returned %v, want the server's refusal", err)
	}
	if st := srv.StatsSnapshot(); st.Pushes != 1 || st.Rejected != 1 {
		t.Fatalf("stats = %+v, want 1 applied / 1 rejected", st)
	}
}

// TestHTTPServerStartWithFallbackClient serves on a real listener with
// Start's deadlines and dials it with a zero-Client transport, the fallback
// client with a timeout.
func TestHTTPServerStartWithFallbackClient(t *testing.T) {
	srv := oneShardServer(t, ModeAsync)
	hs := NewHTTPServer(srv)
	addr, err := hs.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Shutdown(context.Background())
	defer defaultClient.CloseIdleConnections()
	if defaultClient.Timeout <= 0 || hs.httpSrv.ReadTimeout <= 0 || hs.httpSrv.WriteTimeout <= 0 || hs.httpSrv.IdleTimeout <= 0 {
		t.Fatal("a side of the HTTP pair has no deadline")
	}
	tr := &HTTPTransport{BaseURL: "http://" + addr}
	if _, err := tr.Push(PushRequest{Shard: 0, Worker: 0, Seq: 1, Count: 1, Grad: make([]float64, 8)}); err != nil {
		t.Fatal(err)
	}
	if rep, err := tr.Pull(0); err != nil || rep.Version != 1 {
		t.Fatalf("pull = %+v, %v; want version 1", rep, err)
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestHTTPTransportRetries drives the retry rule through a faulty
// RoundTripper: lost and damaged replies are re-sent (and the server's Seq
// horizon makes the re-sent push a no-op), a status error never is.
func TestHTTPTransportRetries(t *testing.T) {
	grad := []float64{2, 0, 0, 0, 0, 0, 0, 0}
	push := PushRequest{Shard: 0, Worker: 1, Seq: 1, Count: 1, Grad: grad}
	// faulty returns a transport whose first exchange goes through fault and
	// whose later ones are clean, plus the count of exchanges attempted.
	faulty := func(ts *httptest.Server, fault func(*http.Response) (*http.Response, error)) (*HTTPTransport, *int) {
		calls := new(int)
		rt := roundTripFunc(func(r *http.Request) (*http.Response, error) {
			*calls++
			resp, err := ts.Client().Transport.RoundTrip(r)
			if err != nil || *calls > 1 {
				return resp, err
			}
			return fault(resp)
		})
		return &HTTPTransport{BaseURL: ts.URL, Client: &http.Client{Transport: rt}}, calls
	}

	t.Run("lost push reply", func(t *testing.T) {
		srv := oneShardServer(t, ModeAsync)
		ts := httptest.NewServer(NewHTTPServer(srv).Handler())
		defer ts.Close()
		tr, calls := faulty(ts, func(resp *http.Response) (*http.Response, error) {
			resp.Body.Close() // the server has applied the push; its answer never arrives
			return nil, errors.New("connection reset by test")
		})
		rep, err := tr.Push(push)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Duplicate || rep.Applied || *calls != 2 {
			t.Fatalf("reply %+v after %d exchanges, want the retransmission deduplicated on the 2nd", rep, *calls)
		}
		if st := srv.StatsSnapshot(); st.Pushes != 1 || st.Duplicates != 1 {
			t.Fatalf("stats = %+v, want 1 applied / 1 duplicate", st)
		}
		if pull, _ := srv.Pull(0); pull.Params[0] != -1 || pull.Version != 1 {
			t.Fatalf("shard at %g version %d, want exactly one step (-1, version 1)", pull.Params[0], pull.Version)
		}
	})

	t.Run("damaged pull reply", func(t *testing.T) {
		srv := oneShardServer(t, ModeAsync)
		ts := httptest.NewServer(NewHTTPServer(srv).Handler())
		defer ts.Close()
		tr, calls := faulty(ts, func(resp *http.Response) (*http.Response, error) {
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			b[len(b)/2] ^= 0x10
			resp.Body = io.NopCloser(bytes.NewReader(b))
			return resp, err
		})
		rep, err := tr.Pull(0)
		if err != nil || len(rep.Params) != 8 || *calls != 2 {
			t.Fatalf("pull = %+v, %v after %d exchanges, want a clean reply on the 2nd", rep, err, *calls)
		}
	})

	t.Run("status error", func(t *testing.T) {
		srv := oneShardServer(t, ModeAsync)
		ts := httptest.NewServer(NewHTTPServer(srv).Handler())
		defer ts.Close()
		tr, calls := faulty(ts, func(resp *http.Response) (*http.Response, error) { return resp, nil })
		if _, err := tr.Pull(9); err == nil || *calls != 1 {
			t.Fatalf("pull of unknown shard: err %v after %d exchanges, want the 400 returned at once", err, *calls)
		}
	})
}

// TestHTTPTransportHungServer: a server that never answers costs a worker a
// bounded wait, not forever — Pull gives up after its retries, and the
// engine's pullAll carries on against the cached view.
func TestHTTPTransportHungServer(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-release }))
	defer ts.Close()
	defer close(release) // before ts.Close, which waits for the handlers
	client := &http.Client{Timeout: 50 * time.Millisecond}

	ds := psDataset(t, 40)
	m := model.NewLR(ds.D())
	e := NewEngine(ModeSync, m, ds, 0.3, 1, 1)
	e.Dial = func(int) Transport { return &HTTPTransport{BaseURL: ts.URL, Client: client} }
	e.prepare()
	ws := e.ws[0]
	for j := range ws.cache {
		ws.cache[j] = float64(j) + 0.5
	}
	ws.basis[0] = 7

	start := time.Now()
	if _, err := ws.t.Pull(0); err == nil {
		t.Fatal("pull from a server that never answers returned no error")
	}
	e.pullAll(ws)
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("two hung pulls took %v, want them bounded by the client timeout and %d retries", took, maxRetries)
	}
	for j, v := range ws.cache {
		if v != float64(j)+0.5 {
			t.Fatalf("cache[%d] = %g after a failed pull, want the cached value kept", j, v)
		}
	}
	if ws.basis[0] != 7 {
		t.Fatalf("basis moved to %d on a failed pull", ws.basis[0])
	}
}
