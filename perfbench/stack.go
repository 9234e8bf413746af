package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"readys/internal/gateway"
	"readys/internal/serve"
)

// defaultPortBase is the first of the three pinned loopback ports: replicas
// listen on portBase and portBase+1, the gateway on portBase+2. The gateway
// assigns each model to a replica by rendezvous hashing over the replica
// URLs, so random ports would change the model split — and with it the load
// balance and the LRU evictions — from run to run. Pinned URLs make the split
// the same on every run. With these two URLs each replica owns 8 of the 16
// checkpoints, so all stay resident at MaxModels 8, and each owns one of the
// two heaviest (LU and QR T=8), so the serve-mix load splits about evenly.
// The ports lie below Linux's ephemeral range (32768–60999), where an
// outgoing connection of another process could be holding them.
const defaultPortBase = 20044

// numReplicas is the number of serving replicas behind the gateway.
const numReplicas = 2

// stack is the serving tier under test: readys-serve replicas on pinned
// loopback listeners behind one gateway, all in this process and all with
// production-default configuration (batching off, MaxModels 8).
type stack struct {
	replicas []*listener
	servers  []*serve.Server
	gw       *gateway.Gateway
	gwL      *listener
	client   *http.Client
}

// listener is one HTTP server on a pinned loopback port.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(port int, h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return nil, fmt.Errorf("pinned port %d: %w", port, err)
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return l, nil
}

func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = l.srv.Shutdown(ctx) // on timeout Close below drops what is left
	l.srv.Close()
	<-l.done
}

// startStack starts the replicas and the gateway on ports portBase,
// portBase+1, … and returns once all of them accept connections.
func startStack(root string, portBase int) (*stack, error) {
	s := &stack{client: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        1024,
			MaxIdleConnsPerHost: 1024,
			DisableCompression:  true,
		},
	}}
	urls := make([]string, 0, numReplicas)
	for i := 0; i < numReplicas; i++ {
		cfg := serve.DefaultConfig()
		cfg.ModelsDir = filepath.Join(root, "models")
		srv := serve.New(cfg)
		l, err := listen(portBase+i, srv.Handler())
		if err != nil {
			s.close()
			return nil, err
		}
		s.servers = append(s.servers, srv)
		s.replicas = append(s.replicas, l)
		urls = append(urls, l.url)
	}
	gw, err := gateway.New(gateway.Config{Replicas: urls})
	if err != nil {
		s.close()
		return nil, err
	}
	s.gw = gw
	if s.gwL, err = listen(portBase+numReplicas, gw.Handler()); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the gateway and the replicas and waits for their goroutines.
func (s *stack) close() {
	if s == nil {
		return
	}
	if s.gwL != nil {
		s.gwL.close()
	}
	if s.gw != nil {
		s.gw.Close()
	}
	for i, l := range s.replicas {
		l.close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.servers[i].Shutdown(ctx) // the listener is gone; this only drains the pool
		cancel()
	}
	s.client.CloseIdleConnections()
	// The gateway forwards through the default transport; its idle
	// connections point at the replicas just closed, and a later stack on
	// the same pinned ports must not inherit them.
	http.DefaultClient.CloseIdleConnections()
}

// post sends one JSON body and returns the status and the whole response
// body.
func (s *stack) post(url string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(url+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// metrics fetches a component's JSON /metrics document.
func (s *stack) metrics(url string) (map[string]any, error) {
	resp, err := s.client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", url, resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("GET %s/metrics: %w", url, err)
	}
	return out, nil
}

// number digs a numeric field out of a decoded /metrics document.
func number(doc map[string]any, path ...string) (float64, error) {
	var cur any = doc
	for _, p := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0, fmt.Errorf("metrics: %v is not an object", path)
		}
		cur = m[p]
	}
	v, ok := cur.(float64)
	if !ok {
		return 0, fmt.Errorf("metrics: missing number at %v", path)
	}
	return v, nil
}
