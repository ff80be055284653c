package server

// The peer layer: peer-to-peer cache fill across a voltron-serve fleet.
// Every replica ranks the same consistent-hash ring over the job content
// address (spec.RingKey), so each key has one owner. A request landing on a
// non-owner first consults the local cache (previous fills serve locally),
// then forwards to the owner — the owner simulates at most once for the
// whole fleet (its singleflight collapses concurrent forwards from every
// replica) and the forwarding replica stores the returned body in its own
// cache, so one replica's simulation warms the fleet. The owner's response
// bytes are relayed verbatim: bodies are byte-identical across replicas.
//
// Failure policy: the fleet is an optimization, not a dependency. A forward
// is capped below the inbound request's remaining budget (half the
// remainder, at most PeerTimeout) so that an unreachable or overloaded
// owner degrades to a local simulation with budget to spare — never to a
// 504 caused by waiting out the whole inbound deadline on a dead peer and
// then having nothing left for the fallback (the double-deadline bug; a
// regression test pins this).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"voltron/internal/spec"
)

// Replica names one member of a voltron-serve fleet.
type Replica struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// forwardHeader marks a request as peer-forwarded (its value is the sending
// replica's name). A forwarded request is always computed locally — even if
// a membership disagreement makes the receiver believe a third replica owns
// the key — so forwards can never loop.
const forwardHeader = "X-Voltron-Forwarded"

// ParsePeers parses a -peers argument: either an inline comma-separated
// list of name=url entries, or "@path" naming a file with one name=url
// entry per line (blank lines and #-comments allowed). The list may include
// the local replica's own entry; the server skips it.
func ParsePeers(arg string) ([]Replica, error) {
	var entries []string
	if strings.HasPrefix(arg, "@") {
		b, err := os.ReadFile(arg[1:])
		if err != nil {
			return nil, fmt.Errorf("reading peers file: %w", err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			entries = append(entries, line)
		}
	} else {
		for _, e := range strings.Split(arg, ",") {
			if e = strings.TrimSpace(e); e != "" {
				entries = append(entries, e)
			}
		}
	}
	var peers []Replica
	seen := map[string]bool{}
	for _, e := range entries {
		name, url, ok := strings.Cut(e, "=")
		name, url = strings.TrimSpace(name), strings.TrimSpace(url)
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad peer entry %q (want name=url)", e)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate peer name %q", name)
		}
		seen[name] = true
		peers = append(peers, Replica{Name: name, URL: strings.TrimSuffix(url, "/")})
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("empty peer list")
	}
	return peers, nil
}

// ownerOf returns the name of the remote replica owning key, or "" when
// this replica owns it (or no cluster is configured).
func (s *Server) ownerOf(key string) string {
	if s.ring == nil {
		return ""
	}
	owner := s.ring.owner(spec.RingKeyOf(key))
	if owner == s.cfg.Self {
		return ""
	}
	return owner
}

// forwardBudget caps one peer call below the inbound request's remaining
// budget: half the remainder, never more than PeerTimeout. The unreserved
// half keeps the local-simulation fallback viable when the owner is dead —
// the fix for inheriting the client's deadline twice (once here, once as
// the owner's own request timeout).
func (s *Server) forwardBudget(ctx context.Context) time.Duration {
	budget := s.cfg.PeerTimeout
	if dl, ok := ctx.Deadline(); ok {
		if half := time.Until(dl) / 2; half < budget {
			budget = half
		}
	}
	if budget < time.Millisecond {
		budget = time.Millisecond
	}
	return budget
}

// forward sends one request to the key's owner, capped by forwardBudget:
// a POST of job to path, or a GET of path when job is nil. It returns the
// owner's 200 body verbatim plus its X-Voltron-Cache status. Any failure
// (unreachable owner, any other status — including a 404 or an owner
// shedding with 429 — or the budget expiring) is an error; the caller
// answers locally instead.
func (s *Server) forward(ctx context.Context, owner, path string, job *spec.JobRequest) ([]byte, string, error) {
	url, ok := s.peerURL[owner]
	if !ok {
		return nil, "", fmt.Errorf("no URL for replica %q", owner)
	}
	method, body := http.MethodGet, []byte(nil)
	if job != nil {
		var err error
		if body, err = json.Marshal(job); err != nil { // canonical structs always marshal
			return nil, "", err
		}
		method = http.MethodPost
	}
	fctx, cancel := context.WithTimeout(ctx, s.forwardBudget(ctx))
	defer cancel()
	hreq, err := http.NewRequestWithContext(fctx, method, url+path, bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(forwardHeader, s.cfg.Self)
	resp, err := s.peerHTTP.Do(hreq)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("replica %s: status %d: %.200s", owner, resp.StatusCode, b)
	}
	return b, resp.Header.Get("X-Voltron-Cache"), nil
}
