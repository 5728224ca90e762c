package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/aqldb/aql/internal/exchange"
	"github.com/aqldb/aql/internal/netcdf"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/trace"
	"github.com/aqldb/aql/internal/types"
)

// metricValue extracts the value of a series line like
// `aql_io_tile_misses_total 16` from an exposition body.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\S+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("/metrics missing series %q", series)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("series %q value %q: %v", series, m[1], err)
	}
	return v
}

// seriesFile writes a NetCDF file holding one 256-cell double variable
// "series" whose cell i is 0.5*i, and returns its path.
func seriesFile(t *testing.T) string {
	t.Helper()
	b := netcdf.NewBuilder()
	d0, _ := b.AddDim("x", 256)
	data := make([]float64, 256)
	for i := range data {
		data[i] = float64(i) * 0.5
	}
	if err := b.AddVar("series", netcdf.Double, []int{d0}, nil, data); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "series.nc")
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// getBody GETs path from ts and returns the response body.
func getBody(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// lastReport returns the newest report the flight recorder retains.
func lastReport(t *testing.T, ts *httptest.Server) trace.QueryReport {
	t.Helper()
	var doc struct {
		Reports []trace.QueryReport `json:"reports"`
	}
	if err := json.Unmarshal([]byte(getBody(t, ts, "/debug/queries")), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Reports) == 0 {
		t.Fatal("no reports in flight recorder")
	}
	return doc.Reports[len(doc.Reports)-1]
}

// TestMetricsTileIO drives a lazily-read NetCDF variable through the query
// endpoint and checks the aql_io_* series report the tile traffic: hits,
// misses, prefetches, and bytes scanned vs. returned all non-zero.
func TestMetricsTileIO(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	path := seriesFile(t)

	s.sess.SetTileConfig(16, 0, false) // 16 tiles, ample budget
	if _, err := s.sess.Exec(fmt.Sprintf(`readval \W using NETCDF at (%q, "series");`, path)); err != nil {
		t.Fatal(err)
	}

	qr, _, err := postQuery(ts, QueryRequest{Query: `summap(fn \i => W[i])!(gen!256)`})
	if err != nil {
		t.Fatal(err)
	}
	// sum of 0.5*i for i<256 = 0.5 * 255*256/2
	if qr.Value != "16320.0" {
		t.Fatalf("query value = %s, want 16320.0", qr.Value)
	}

	text := getBody(t, ts, "/metrics")
	for _, series := range []string{
		`aql_io_tile_hits_total`,
		`aql_io_tile_misses_total`,
		`aql_io_bytes_scanned_total`,
		`aql_io_bytes_returned_total`,
		`aql_io_slab_reads_total`,
		`aql_io_bytes_read_total`,
		`aqld_io_cache_resident_bytes`,
	} {
		if v := metricValue(t, text, series); v <= 0 {
			t.Errorf("%s = %v, want > 0", series, v)
		}
	}
	// A sequential scan prefetches all but the first tile, and every
	// prefetched tile is later demanded.
	useful := metricValue(t, text, `aql_io_tile_prefetch_useful_total`)
	if useful <= 0 {
		t.Errorf("prefetches useful = %v, want > 0", useful)
	}
	// The headers for spill/retry/eviction series are present even when zero.
	for _, want := range []string{
		"# TYPE aql_io_spill_bytes_written_total counter",
		"# TYPE aql_io_spill_bytes_read_total counter",
		"# TYPE aql_io_retries_total counter",
		"# TYPE aql_io_faults_total counter",
		"# TYPE aqld_io_tile_evictions_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The per-request report carried the tile counters too.
	if last := lastReport(t, ts); last.IO.TileMisses == 0 || last.IO.BytesScanned == 0 {
		t.Errorf("request report IO = %+v, want non-zero tile misses and bytes scanned", last.IO)
	}
}

// ioSeriesRE matches one aql_io_* or aqld_io_* sample line.
var ioSeriesRE = regexp.MustCompile(`(?m)^(aqld?_io_\w+(?:\{[^}]*\})?) (\S+)$`)

// TestUnrecordedIOStaysOffMetrics pins the -init contract for out-of-core
// work: setup statements run with the session recorder disabled (what aqld
// -init does) may scan a lazy NetCDF variable, yet /metrics shows no tile
// or file traffic. After one served query, every aql_io_* series equals
// that query's report.
func TestUnrecordedIOStaysOffMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	path := seriesFile(t)

	s.sess.SetTileConfig(16, 0, false)
	s.sess.Recording.Store(false)
	_, err := s.sess.Exec(fmt.Sprintf(`readval \W using NETCDF at (%q, "series");
		val \S = summap(fn \i => W[i])!(gen!256);`, path))
	s.sess.Recording.Store(true)
	if err != nil {
		t.Fatal(err)
	}

	// Residency is cache state, not work: the setup legitimately leaves
	// tiles resident.
	state := map[string]bool{"aqld_io_cache_resident_bytes": true, "aqld_io_cache_peak_bytes": true}
	samples := ioSeriesRE.FindAllStringSubmatch(getBody(t, ts, "/metrics"), -1)
	if len(samples) == 0 {
		t.Fatal("/metrics has no I/O series")
	}
	for _, m := range samples {
		if !state[m[1]] && m[2] != "0" {
			t.Errorf("after unrecorded setup: %s = %s, want 0", m[1], m[2])
		}
	}

	if _, _, err := postQuery(ts, QueryRequest{Query: `summap(fn \i => W[i])!(gen!256)`}); err != nil {
		t.Fatal(err)
	}
	got := lastReport(t, ts).IO
	if got.TileHits+got.TileMisses == 0 {
		t.Fatalf("served query report IO = %+v, want tile traffic", got)
	}
	text := getBody(t, ts, "/metrics")
	for series, want := range map[string]int64{
		"aql_io_slab_reads_total":           got.SlabReads,
		"aql_io_bytes_read_total":           got.BytesRead,
		"aql_io_retries_total":              got.Retries,
		"aql_io_faults_total":               got.Faults,
		"aql_io_tile_hits_total":            got.TileHits,
		"aql_io_tile_misses_total":          got.TileMisses,
		"aql_io_tile_prefetches_total":      got.Prefetches,
		"aql_io_tile_prefetch_useful_total": got.PrefetchUseful,
		"aql_io_bytes_scanned_total":        got.BytesScanned,
		"aql_io_bytes_returned_total":       got.BytesReturned,
		"aql_io_spill_bytes_written_total":  got.SpillBytesWritten,
		"aql_io_spill_bytes_read_total":     got.SpillBytesRead,
	} {
		if v := metricValue(t, text, series); v != float64(want) {
			t.Errorf("%s = %v, want the served report's %d", series, v, want)
		}
	}
}

// TestLazyIOFailureIsIOError: a lazy array that fails to materialize inside
// a comparison (an interface with no error return) is answered with the I/O
// error on both execution endpoints, never the 500 of an internal panic.
func TestLazyIOFailureIsIOError(t *testing.T) {
	const text = `[[ if V = W then i else 0 | \i < 4 ]]`
	for _, tc := range []struct {
		name string
		post func(t *testing.T, s *Server, url string) (status int, kind, message string)
	}{
		{"POST /query", func(t *testing.T, s *Server, url string) (int, string, string) {
			resp, err := http.Post(url+"/query", "application/json", strings.NewReader(fmt.Sprintf(`{"query": %q}`, text)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var er ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, er.Error.Kind, er.Error.Message
		}},
		{"POST /shard", func(t *testing.T, s *Server, url string) (int, string, string) {
			body, _ := json.Marshal(exchange.ShardRequest{Query: text, Shape: []int{4}, Start: 0, End: 4})
			resp, err := http.Post(url+"/shard", "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var er exchange.ShardErrorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, er.Error.Kind, er.Error.Message
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{})
			b := netcdf.NewBuilder()
			d0, _ := b.AddDim("x", 64)
			if err := b.AddVar("series", netcdf.Double, []int{d0}, nil, make([]float64, 64)); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "series.nc")
			if err := b.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			osf, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { osf.Close() })
			// Every read after the header fails, so no tile ever arrives.
			faulty := netcdf.NewFaultyReaderAt(osf)
			f, err := netcdf.Read(faulty)
			if err != nil {
				t.Fatal(err)
			}
			h, err := f.WholeVar("series")
			if err != nil {
				t.Fatal(err)
			}
			persistent := make([]netcdf.Fault, 16)
			for i := range persistent {
				persistent[i] = netcdf.Fault{Err: netcdf.ErrInjected}
			}
			faulty.SetSchedule(0, persistent...)
			fetch := func(ctx context.Context, off, n int) (object.Flat, error) {
				vals, err := h.ReadRange(ctx, off, n)
				if err != nil {
					return object.Flat{}, err
				}
				return object.PackReals(vals, "non-finite"), nil
			}
			for _, name := range []string{"V", "W"} {
				lazy, err := object.LazyArray(h.Shape(), s.sess.TileCache().NewFlatArray(h.Size(), fetch))
				if err != nil {
					t.Fatal(err)
				}
				s.sess.Env.SetVal(name, lazy, types.MustParse("[[real]]"))
			}
			status, kind, message := tc.post(t, s, ts.URL)
			if status != http.StatusUnprocessableEntity || kind != "eval" {
				t.Errorf("status %d kind %q, want 422 eval (message %q)", status, kind, message)
			}
			if !strings.Contains(message, "materializing lazy array") || !strings.Contains(message, "injected") {
				t.Errorf("message = %q, want the materializing-lazy-array error wrapping the injected fault", message)
			}
		})
	}
}
