package client

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"path"
	"strconv"
	"strings"

	"sp2bench/internal/rdf"
	"sp2bench/internal/snapshot"
	"sp2bench/internal/store"
)

// ShardMeta describes one shard server, decoded from its /shard/meta
// document. The coordinator (internal/shard.OpenRemote) uses it to
// verify placement and the global dictionary contract, and to answer
// the optimizer's statistics lookups without network round-trips.
type ShardMeta struct {
	Triples     int    `json:"triples"`
	DictTerms   int    `json:"dict_terms"`
	DictHash    string `json:"dict_hash"`
	Partitioner string `json:"partitioner"`
	ShardIndex  int    `json:"shard_index"`
	ShardCount  int    `json:"shard_count"`

	TotalDistinctSubjects int `json:"total_distinct_subjects"`
	TotalDistinctObjects  int `json:"total_distinct_objects"`

	PredStats []ShardPredStat `json:"pred_stats"`
}

// ShardPredStat is one row of the shard's statistics table.
type ShardPredStat struct {
	Pred             uint32 `json:"pred"`
	Count            int    `json:"count"`
	DistinctSubjects int    `json:"distinct_subjects"`
	DistinctObjects  int    `json:"distinct_objects"`
}

// shardURL derives the URL of one shard data-plane route from the query
// endpoint, keeping any mount prefix intact (http://h/sparql →
// http://h/shard/scan).
func (c *Client) shardURL(route string, query url.Values) (string, error) {
	u, err := url.Parse(c.endpoint)
	if err != nil {
		return "", fmt.Errorf("deriving shard URL from %q: %w", c.endpoint, err)
	}
	p := path.Join(path.Dir(u.Path), "shard", route)
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	u.Path, u.RawQuery = p, query.Encode()
	return u.String(), nil
}

func (c *Client) shardGet(ctx context.Context, route string, query url.Values) (*http.Response, error) {
	target, err := c.shardURL(route, query)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
		resp.Body.Close()
		return nil, &HTTPError{StatusCode: resp.StatusCode, Status: resp.Status, Body: string(b)}
	}
	return resp, nil
}

// ShardMeta fetches the shard's identity and statistics document.
func (c *Client) ShardMeta(ctx context.Context) (*ShardMeta, error) {
	resp, err := c.shardGet(ctx, "meta", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m ShardMeta
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding shard meta: %w", err)
	}
	return &m, nil
}

// ShardDict fetches the shard's full term dictionary in ID order —
// every shard embeds the complete global vocabulary, so any one shard
// can seed the coordinator's dictionary.
func (c *Client) ShardDict(ctx context.Context) ([]rdf.Term, error) {
	resp, err := c.shardGet(ctx, "dict", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return snapshot.ReadDict(resp.Body)
}

// shardPatternValues renders a triple pattern as query parameters;
// NoID components are omitted (wildcards).
func shardPatternValues(sub, pred, obj store.ID) url.Values {
	v := url.Values{}
	if sub != store.NoID {
		v.Set("s", strconv.FormatUint(uint64(sub), 10))
	}
	if pred != store.NoID {
		v.Set("p", strconv.FormatUint(uint64(pred), 10))
	}
	if obj != store.NoID {
		v.Set("o", strconv.FormatUint(uint64(obj), 10))
	}
	return v
}

// ShardScan fetches the rows matching a pattern in one index ordering:
// 12-byte little-endian records in index component order, residuals
// already applied by the shard. bytes is the wire size consumed, for
// the coordinator's bytes-moved accounting.
func (c *Client) ShardScan(ctx context.Context, ord store.Order, sub, pred, obj store.ID) (rows []store.EncTriple, bytes int, err error) {
	v := shardPatternValues(sub, pred, obj)
	v.Set("ord", strconv.Itoa(int(ord)))
	resp, err := c.shardGet(ctx, "scan", v)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if len(b)%12 != 0 {
		return nil, 0, fmt.Errorf("shard scan: %d-byte body is not a whole number of rows", len(b))
	}
	rows = make([]store.EncTriple, len(b)/12)
	for i := range rows {
		rec := b[i*12:]
		rows[i] = store.EncTriple{
			store.ID(binary.LittleEndian.Uint32(rec[0:])),
			store.ID(binary.LittleEndian.Uint32(rec[4:])),
			store.ID(binary.LittleEndian.Uint32(rec[8:])),
		}
	}
	return rows, len(b), nil
}

// ShardCount fetches the number of triples matching a pattern without
// moving the rows.
func (c *Client) ShardCount(ctx context.Context, sub, pred, obj store.ID) (int, error) {
	resp, err := c.shardGet(ctx, "count", shardPatternValues(sub, pred, obj))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var doc struct {
		Count int `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return 0, fmt.Errorf("decoding shard count: %w", err)
	}
	return doc.Count, nil
}
