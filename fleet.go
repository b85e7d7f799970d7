package mcbench

// The fleet peer adapter: internal/fleet speaks to remote nodes through
// its Peer interface, and this file implements it over Client — so
// coordinator↔worker traffic inherits the client's retries, backoff and
// typed errors. The adapter is injected into the serve layer as a
// Dialer (see Serve), which keeps the import direction acyclic:
// mcbench → internal/serve → internal/fleet.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"mcbench/internal/experiments"
	"mcbench/internal/fleet"
	"mcbench/internal/serve"
	"mcbench/internal/telemetry"
)

// FleetJoin registers a worker with a coordinator (POST /fleet/join).
// A coordinator that rejects the worker as incompatible (mixed builds or
// lab configurations) answers 409; most callers want Serve's Join
// option, which drives the whole membership loop, instead.
func (c *Client) FleetJoin(ctx context.Context, req FleetJoinRequest) (*FleetJoinResponse, error) {
	var resp FleetJoinResponse
	if err := c.do(ctx, http.MethodPost, "/fleet/join", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// FleetHeartbeat renews a fleet membership lease. A 404 means the
// coordinator no longer knows the id (restart or lease lapse): re-join.
func (c *Client) FleetHeartbeat(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/fleet/heartbeat", map[string]string{"id": id}, nil)
}

// FleetLeave deregisters a fleet membership (idempotent).
func (c *Client) FleetLeave(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/fleet/leave", map[string]string{"id": id}, nil)
}

// SubmitWarm submits a warm job: the server precomputes the named
// campaign products into its lab and persistent cache without rendering
// a table. On a fleet coordinator the plan is sharded across the
// workers; this is how a campaign's sweeps are pre-distributed before
// interactive submissions need them.
func (c *Client) SubmitWarm(ctx context.Context, products []ProductRef) (*JobStatus, error) {
	return c.submit(ctx, serve.SubmitRequest{
		Kind: serve.KindWarm,
		Warm: &serve.WarmRequest{Products: products},
	})
}

// CacheGet fetches one stored table's raw bytes by content key
// (GET /cache/{key}), integrity footer included — the fleet's result
// fabric. ok is false on a plain 404 miss.
func (c *Client) CacheGet(ctx context.Context, key string) (data []byte, ok bool, err error) {
	_, data, err = c.exchange(ctx, http.MethodGet, "/cache/"+url.PathEscape(key), nil)
	if err != nil {
		if IsNotFound(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	return data, true, nil
}

// clientPeer adapts Client to fleet.Peer.
type clientPeer struct{ c *Client }

func (p clientPeer) Join(ctx context.Context, req fleet.JoinRequest) (*fleet.JoinResponse, error) {
	resp, err := p.c.FleetJoin(ctx, req)
	if err != nil {
		var ae *APIError
		if errors.As(err, &ae) && ae.StatusCode == http.StatusConflict {
			return nil, fmt.Errorf("%w: %s", fleet.ErrIncompatible, ae.Message)
		}
		return nil, err
	}
	return resp, nil
}

func (p clientPeer) Heartbeat(ctx context.Context, id string) error {
	return p.c.FleetHeartbeat(ctx, id)
}

func (p clientPeer) Leave(ctx context.Context, id string) error {
	return p.c.FleetLeave(ctx, id)
}

func (p clientPeer) SubmitWarm(ctx context.Context, products []experiments.Request) (string, error) {
	st, err := p.c.SubmitWarm(ctx, serve.Refs(products))
	if err != nil {
		return "", err
	}
	return st.ID, nil
}

func (p clientPeer) WaitJob(ctx context.Context, jobID string) error {
	_, err := p.c.Wait(ctx, jobID)
	return err
}

func (p clientPeer) CancelJob(ctx context.Context, jobID string) error {
	_, err := p.c.Cancel(ctx, jobID)
	return err
}

func (p clientPeer) FetchCache(ctx context.Context, key string) ([]byte, bool, error) {
	return p.c.CacheGet(ctx, key)
}

// FetchMetrics implements fleet.MetricsFetcher: the coordinator's
// /fleet/metrics aggregation scrapes each worker through it.
func (p clientPeer) FetchMetrics(ctx context.Context) (*telemetry.Snapshot, error) {
	return p.c.Metrics(ctx)
}

// dialPeer opens a fleet peer for an advertised address, accepting both
// bare "host:port" (the common -join form) and full http(s) URLs.
func dialPeer(addr string) (fleet.Peer, error) {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	c, err := NewClient(base)
	if err != nil {
		return nil, err
	}
	return clientPeer{c}, nil
}
