package rebalance

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"skycube"
	"skycube/internal/wal"
)

// Wire headers of the state-transfer protocol (shared with the shard's
// /shard/snapshot and /shard/tail handlers).
const (
	// TailSeqHeader names the WAL segment a snapshot pairs with, and on a
	// tail response the active segment the chain reached.
	TailSeqHeader = "X-Skycube-Tail-Seq"
	// TailTotalHeader is the chain's total record count after this response
	// — the caller's next skip cursor.
	TailTotalHeader = "X-Skycube-Tail-Total"
)

// maxTransferBytes caps one snapshot or tail response read.
const maxTransferBytes = 1 << 30

// DefaultTimeout bounds one transfer request when Client.Timeout is zero.
// Snapshots of large shards take longer than a query round trip, so this is
// deliberately far above the coordinator's per-attempt timeout.
const DefaultTimeout = 60 * time.Second

// Client fetches state-transfer streams from peer shards.
type Client struct {
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// Timeout bounds each request; 0 means DefaultTimeout.
	Timeout time.Duration
}

func (c *Client) httpClient() *http.Client {
	if c == nil || c.HTTP == nil {
		return http.DefaultClient
	}
	return c.HTTP
}

func (c *Client) timeout() time.Duration {
	if c == nil || c.Timeout <= 0 {
		return DefaultTimeout
	}
	return c.Timeout
}

// get issues one GET under the client timeout and returns the body and
// response for header inspection. Non-2xx statuses are errors carrying a
// body snippet; 410 Gone maps to wal.ErrTailTruncated.
func (c *Client) get(ctx context.Context, url string) ([]byte, http.Header, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxTransferBytes))
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode == http.StatusGone {
		return nil, nil, wal.ErrTailTruncated
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		snippet := string(body)
		if len(snippet) > 200 {
			snippet = snippet[:200]
		}
		return nil, nil, fmt.Errorf("rebalance: GET %s: status %d: %s", url, resp.StatusCode, snippet)
	}
	return body, resp.Header, nil
}

// Snapshot fetches the peer's snapshot stream: verbatim checkpoint bytes
// plus the WAL segment seq the tail chain starts at.
func (c *Client) Snapshot(ctx context.Context, peer string) ([]byte, uint64, error) {
	body, hdr, err := c.get(ctx, peer+"/shard/snapshot")
	if err != nil {
		return nil, 0, err
	}
	seq, err := strconv.ParseUint(hdr.Get(TailSeqHeader), 10, 64)
	if err != nil || seq == 0 {
		return nil, 0, fmt.Errorf("rebalance: %s/shard/snapshot: bad %s header %q",
			peer, TailSeqHeader, hdr.Get(TailSeqHeader))
	}
	// Verify before materializing anything: a corrupt stream must fail here,
	// not during local recovery.
	if _, err := wal.DecodeSnapshot(body); err != nil {
		return nil, 0, fmt.Errorf("rebalance: %s snapshot: %w", peer, err)
	}
	return body, seq, nil
}

// Tail fetches the peer's WAL tail from the (from, skip) cursor, returning
// the new records and the chain's total — the next skip. A 410 from the
// peer (the chain was truncated by a checkpoint) surfaces as
// wal.ErrTailTruncated; the caller must restart from a fresh snapshot.
func (c *Client) Tail(ctx context.Context, peer string, from uint64, skip int) ([]wal.Record, int, error) {
	url := fmt.Sprintf("%s/shard/tail?from=%d&skip=%d", peer, from, skip)
	body, hdr, err := c.get(ctx, url)
	if err != nil {
		return nil, 0, err
	}
	total, err := strconv.Atoi(hdr.Get(TailTotalHeader))
	if err != nil || total < skip {
		return nil, 0, fmt.Errorf("rebalance: %s: bad %s header %q", url, TailTotalHeader, hdr.Get(TailTotalHeader))
	}
	recs, err := wal.DecodeRecords(body)
	if err != nil {
		return nil, 0, err
	}
	if len(recs) != total-skip {
		return nil, 0, fmt.Errorf("rebalance: %s: %d records in body, header promises %d",
			url, len(recs), total-skip)
	}
	return recs, total, nil
}

// Freshness is a node's durable frontier, read from /shard/info (or
// /healthz on a plain node). Epoch is the authoritative comparison key:
// write-all replicas apply identical batches, so equal epochs mean
// identical state and a lower epoch means missed writes.
type Freshness struct {
	Epoch       uint64 `json:"epoch"`
	Live        int    `json:"live"`
	WALSeq      uint64 `json:"wal_seq,omitempty"`
	SnapshotSeq uint64 `json:"snapshot_seq,omitempty"`
	Replayed    int    `json:"replayed,omitempty"`
	Records     uint64 `json:"records,omitempty"`
}

// Freshness fetches a peer's durable frontier from GET /shard/info.
func (c *Client) Freshness(ctx context.Context, peer string) (Freshness, error) {
	body, _, err := c.get(ctx, peer+"/shard/info")
	if err != nil {
		return Freshness{}, err
	}
	var f Freshness
	if err := json.Unmarshal(body, &f); err != nil {
		return Freshness{}, fmt.Errorf("rebalance: %s/shard/info: %w", peer, err)
	}
	return f, nil
}

// Behind reports whether local is behind any of the peer frontiers, and
// which peer is freshest. A restarted replica that recovered an older epoch
// than a live peer missed writes while down and must re-bootstrap before
// reporting ready.
func Behind(local Freshness, peers []Freshness) (behind bool, freshest int) {
	freshest = -1
	var best uint64
	for i, p := range peers {
		if p.Epoch > best {
			best, freshest = p.Epoch, i
		}
	}
	return freshest >= 0 && best > local.Epoch, freshest
}

// AntiEntropy compares a recovered updater's frontier against its peers'
// and returns the decision as one line for the node's start-up banner. If
// any peer is ahead, this node missed writes while it was down: up is
// closed, opt.Durable.Dir wiped, and the state re-bootstrapped from the
// freshest peer — the returned node then replaces up. A nil node means up
// is current and stays. Unreachable peers are skipped (and logged to
// opt.Durable.Logger): with every peer down there is nothing to compare
// against, and serving the recovered state is strictly better than
// refusing to start.
func AntiEntropy(ctx context.Context, up *skycube.Updater, peers []string, opt skycube.Options) (*Node, string, error) {
	snap := up.Current()
	local := Freshness{Epoch: snap.Epoch(), Live: snap.Live()}
	var fresh []Freshness
	var urls []string
	for _, p := range peers {
		p = strings.TrimRight(p, "/")
		f, err := (&Client{}).Freshness(ctx, p)
		if err != nil {
			if opt.Durable.Logger != nil {
				opt.Durable.Logger.Printf("anti-entropy: peer %s unreachable: %v", p, err)
			}
			continue
		}
		fresh = append(fresh, f)
		urls = append(urls, p)
	}
	behind, freshest := Behind(local, fresh)
	if !behind {
		return nil, fmt.Sprintf("anti-entropy: local epoch %d is current across %d reachable peer(s)",
			local.Epoch, len(fresh)), nil
	}
	verdict := fmt.Sprintf("anti-entropy: local epoch %d is behind peer %s (epoch %d): re-bootstrapped",
		local.Epoch, urls[freshest], fresh[freshest].Epoch)
	up.Close()
	if err := wal.WipeForRejoin(opt.Durable.Dir); err != nil {
		return nil, verdict, err
	}
	n, err := Bootstrap(ctx, urls[freshest], opt)
	return n, verdict, err
}
