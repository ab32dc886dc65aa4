package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"cnnperf/internal/gateway"
	"cnnperf/internal/server"
)

// stack is one deployed topology: replicas built with the default
// server.Config, optionally fronted by a gateway with the default
// gateway.Config, each served over loopback HTTP in this process.
type stack struct {
	replicas []*server.Server
	backends []*httptest.Server
	gw       *gateway.Gateway
	front    *httptest.Server
	client   *http.Client
}

// replicaPortBase fixes the replicas' loopback ports: replica i listens
// on replicaPortBase+i. The gateway's hash ring places backends by URL,
// port included, so fixed ports give every run the same unit placement.
// With these two ports warm_predict_gw's six units split three and
// three (TestWarmRoutingSplitsUnits). A run whose port is taken fails
// rather than measure another placement.
const replicaPortBase = 47320

// loopbackServer serves h on 127.0.0.1:port.
func loopbackServer(port int, h http.Handler) (*httptest.Server, error) {
	l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return nil, fmt.Errorf("replica port %d: %w", port, err)
	}
	s := httptest.NewUnstartedServer(h)
	s.Listener.Close()
	s.Listener = l
	s.Start()
	return s, nil
}

// wrapper lets the traced run put a handler of its own around a
// replica's (index >= 0) or the gateway's (index -1) handler.
type wrapper func(index int, h http.Handler) http.Handler

// newStack builds the topology; clients bounds the client connections.
func newStack(replicas int, withGateway bool, clients int, wrap wrapper) (*stack, error) {
	if wrap == nil {
		wrap = func(_ int, h http.Handler) http.Handler { return h }
	}
	s := &stack{}
	var urls []string
	for i := 0; i < replicas; i++ {
		r := server.New(server.Config{})
		s.replicas = append(s.replicas, r)
		b, err := loopbackServer(replicaPortBase+i, wrap(i, r.Handler()))
		if err != nil {
			s.close()
			return nil, err
		}
		s.backends = append(s.backends, b)
		urls = append(urls, b.URL)
	}
	s.front = s.backends[0]
	if withGateway {
		g, err := gateway.New(gateway.Config{Backends: urls})
		if err != nil {
			s.close()
			return nil, err
		}
		s.gw = g
		s.front = httptest.NewServer(wrap(-1, g.Handler()))
	}
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
	return s, nil
}

// close stops the topology and waits for every request to finish.
func (s *stack) close() {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.gw != nil {
		s.front.Close()
		s.gw.Close()
	}
	for _, b := range s.backends {
		b.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, r := range s.replicas {
		_ = r.Drain(ctx) // the listeners are closed, so nothing is in flight
		r.Close()
	}
}

// response is what a client keeps of one reply.
type response struct {
	status   int
	body     []byte
	attempts int // gateway proxy attempts (0 without a gateway)
}

// do sends one request with the given request id.
func (s *stack) do(ctx context.Context, req request, rid string) (response, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, s.front.URL+req.path, bytes.NewReader(req.body))
	if err != nil {
		return response{}, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-Request-ID", rid)
	resp, err := s.client.Do(hr)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, fmt.Errorf("reading response: %w", err)
	}
	attempts, _ := strconv.Atoi(resp.Header.Get("X-Gateway-Attempts")) // absent without a gateway
	return response{status: resp.StatusCode, body: body, attempts: attempts}, nil
}
