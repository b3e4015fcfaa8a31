package ps

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Deadlines and bounds of the HTTP pair. They are constants: the tier has one
// deployment shape (loopback or a LAN), and a hung peer must cost a worker
// seconds, not forever.
const (
	frameContentType = "application/octet-stream"

	serverReadHeaderTimeout = 10 * time.Second
	serverReadTimeout       = 30 * time.Second
	serverWriteTimeout      = 30 * time.Second
	serverIdleTimeout       = 2 * time.Minute
	serverMaxHeaderBytes    = 16 << 10

	// clientTimeout bounds one attempt of the fallback client, body included.
	clientTimeout = 10 * time.Second
	// maxRetries is how many times a call is re-sent after a transport error
	// or a damaged reply frame; retryBackoff doubles per retry, jittered over
	// its upper half.
	maxRetries   = 2
	retryBackoff = 2 * time.Millisecond
	// maxErrorBody bounds the client's read of a non-200 JSON error body.
	maxErrorBody = 4 << 10
)

// HTTPServer is the HTTP transport over a Server, built on the same
// net/http plumbing as internal/serve so the ps tier answers real sockets:
//
//	GET  /pull?shard=K   PullReply frame for shard K
//	POST /push           PushRequest frame -> PushReply frame
//	GET  /stats          Stats snapshot (JSON)
//
// /pull and /push speak the one binary frame of frame.go. Malformed frames
// and shard/worker/gradient inputs surface as HTTP 400 with a JSON error
// body (errors are for people to read). Admin operations (Load, Snapshot,
// CloseRound, Drain) stay on the *Server — they belong to whoever owns the
// training loop, not to the workers on the wire.
type HTTPServer struct {
	srv     *Server
	httpSrv *http.Server
	ln      net.Listener
}

// NewHTTPServer wraps a parameter server with the HTTP transport.
func NewHTTPServer(srv *Server) *HTTPServer { return &HTTPServer{srv: srv} }

// Handler returns the route mux (exported so tests and in-process callers
// can drive the transport without a socket).
func (h *HTTPServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/pull", h.handlePull)
	mux.HandleFunc("/push", h.handlePush)
	mux.HandleFunc("/stats", h.handleStats)
	return mux
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeFrame(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", frameContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.Write(b)
}

func (h *HTTPServer) handlePull(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	shard, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("ps: bad shard query: %v", err))
		return
	}
	buf := wirePool.Get().(*wireBuf)
	defer wirePool.Put(buf)
	if buf.b, err = h.srv.appendPull(buf.b[:0], shard); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeFrame(w, buf.b)
}

func (h *HTTPServer) handlePush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	buf := wirePool.Get().(*wireBuf)
	defer wirePool.Put(buf)
	var err error
	if buf.b, err = readFrame(buf.b[:0], r.Body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("ps: bad push body: %v", err))
		return
	}
	// Server.Push does not keep req.Grad, so the pooled floats back it.
	req := PushRequest{Grad: buf.f}
	err = decodePushRequest(buf.b, &req)
	buf.f = req.Grad
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rep, err := h.srv.Push(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	buf.b = appendPushReply(buf.b[:0], rep)
	writeFrame(w, buf.b)
}

func (h *HTTPServer) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h.srv.StatsSnapshot())
}

// Start listens on addr (":0" picks a free port) and serves in the
// background, returning the bound address.
func (h *HTTPServer) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	h.ln = ln
	h.httpSrv = &http.Server{
		Handler:           h.Handler(),
		ReadHeaderTimeout: serverReadHeaderTimeout,
		ReadTimeout:       serverReadTimeout,
		WriteTimeout:      serverWriteTimeout,
		IdleTimeout:       serverIdleTimeout,
		MaxHeaderBytes:    serverMaxHeaderBytes,
	}
	go h.httpSrv.Serve(ln) //nolint:errcheck // Shutdown's ErrServerClosed
	return ln.Addr().String(), nil
}

// Shutdown gracefully stops the HTTP listener.
func (h *HTTPServer) Shutdown(ctx context.Context) error {
	if h.httpSrv == nil {
		return nil
	}
	return h.httpSrv.Shutdown(ctx)
}

// HTTPTransport is the worker-side client of HTTPServer: a Transport that
// speaks the binary frame against a base URL, retrying a call whose bytes
// were lost or damaged in flight (pushes are idempotent by Seq). It is safe
// for concurrent use, so workers may share one instance and its http.Client.
type HTTPTransport struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:7070".
	BaseURL string
	// Client defaults to a package client with a per-attempt timeout.
	Client *http.Client

	routes atomic.Pointer[routes] // BaseURL, parsed once
}

// routes is a BaseURL resolved to the two endpoints.
type routes struct {
	base       string
	pull, push url.URL
}

var defaultClient = &http.Client{Timeout: clientTimeout}

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return defaultClient
}

func (t *HTTPTransport) endpoints() (*routes, error) {
	if r := t.routes.Load(); r != nil && r.base == t.BaseURL {
		return r, nil
	}
	u, err := url.Parse(t.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("ps: bad BaseURL: %w", err)
	}
	r := &routes{base: t.BaseURL, pull: *u, push: *u}
	root := strings.TrimSuffix(u.Path, "/")
	r.pull.Path, r.push.Path = root+"/pull", root+"/push"
	t.routes.Store(r)
	return r, nil
}

// call runs one exchange under the retry rule: a transport error or a reply
// frame that fails its own checks is re-sent, from the same encoded bytes, at
// most maxRetries times; an HTTP status error is the server's verdict and is
// returned at once. decode is handed the reply body and must copy out what it
// keeps. call owns out (nil for a GET): net/http may read a request body until
// the response body is closed, and past a transport error nothing says when
// it stopped, so out goes back to the pool only when the first attempt
// succeeded.
func (t *HTTPTransport) call(method string, u *url.URL, out *wireBuf, decode func([]byte) error) error {
	var body []byte
	if out != nil {
		body = out.b
	}
	in := wirePool.Get().(*wireBuf)
	defer wirePool.Put(in)
	for attempt := 0; ; attempt++ {
		retry, err := t.attempt(method, u, body, in, decode)
		if err == nil && attempt == 0 && out != nil {
			wirePool.Put(out)
		}
		if !retry || attempt == maxRetries {
			return err
		}
		half := int64(retryBackoff) << attempt / 2
		time.Sleep(time.Duration(half + rand.Int63n(half)))
	}
}

// attempt is one request and its response; retry reports a failure the
// server did not decide: the connection's, or a damaged reply frame.
func (t *HTTPTransport) attempt(method string, u *url.URL, body []byte, in *wireBuf, decode func([]byte) error) (retry bool, err error) {
	req := &http.Request{Method: method, URL: u, Header: http.Header{}}
	if body != nil {
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
		req.Header.Set("Content-Type", frameContentType)
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(io.LimitReader(resp.Body, maxErrorBody)).Decode(&e) == nil && e.Error != "" {
			return false, fmt.Errorf("ps: server: %s", e.Error)
		}
		return false, fmt.Errorf("ps: server returned %s", resp.Status)
	}
	if in.b, err = readFrame(in.b[:0], resp.Body); err != nil {
		return true, err
	}
	err = decode(in.b)
	return err != nil, err
}

// Pull implements Transport.
func (t *HTTPTransport) Pull(shard int) (PullReply, error) {
	r, err := t.endpoints()
	if err != nil {
		return PullReply{}, err
	}
	u := r.pull
	u.RawQuery = "shard=" + strconv.Itoa(shard)
	var rep PullReply
	if err := t.call(http.MethodGet, &u, nil, func(b []byte) error { return decodePullReply(b, &rep) }); err != nil {
		return PullReply{}, err
	}
	return rep, nil
}

// Push implements Transport.
func (t *HTTPTransport) Push(req PushRequest) (PushReply, error) {
	r, err := t.endpoints()
	if err != nil {
		return PushReply{}, err
	}
	out := wirePool.Get().(*wireBuf)
	out.b = appendPushRequest(out.b[:0], &req)
	var rep PushReply
	err = t.call(http.MethodPost, &r.push, out, func(b []byte) (err error) {
		rep, err = decodePushReply(b)
		return err
	})
	return rep, err
}
