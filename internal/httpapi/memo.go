package httpapi

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"sync/atomic"

	"vzlens/internal/core"
	"vzlens/internal/geo"
)

// This file is the in-process memo of rendered response bodies for the
// handler's pure-of-world GETs: the experiment tables, the country
// summaries, and the crisis signatures. For experiments it heads the
// read-through chain memo → store → cluster → simulate. The world and
// its configuration scope are fixed for the handler's lifetime, so a
// rendered body never goes stale and is encoded once. The key set is
// fixed at construction (the experiment registry, the LACNIC country
// list, the signatures document), so the memo needs no eviction and no
// size bound, and its lookups are lock-free reads of an immutable map.
// Only successful renderings are stored: a failure, a 503, or a
// 400/404 never reaches put, so the next request retries.

// document is one rendered response body; experiment tables also carry
// their CSV rendering.
type document struct {
	json, csv []byte
}

// docMemo maps every memoizable key to its slot, nil until filled.
type docMemo map[string]*atomic.Pointer[document]

// Memo keys for the non-experiment documents; experiments key by id.
const signaturesKey = "signatures"

func countryKey(cc string) string { return "countries/" + cc }

// newDocMemo allocates a slot per registry experiment, per LACNIC
// country, and for the signatures document.
func newDocMemo() docMemo {
	m := docMemo{signaturesKey: new(atomic.Pointer[document])}
	for _, id := range core.ExperimentIDs() {
		m[id] = new(atomic.Pointer[document])
	}
	for _, cc := range geo.LACNICCountries() {
		m[countryKey(cc)] = new(atomic.Pointer[document])
	}
	return m
}

// get returns the memoized document for key, nil on a miss or for a
// key that is never memoized.
func (m docMemo) get(key string) *document {
	if slot := m[key]; slot != nil {
		return slot.Load()
	}
	return nil
}

// put memoizes doc under key. Concurrent fills of one key store
// identical bytes, so the last writer winning is harmless.
func (m docMemo) put(key string, doc *document) {
	if slot := m[key]; slot != nil {
		slot.Store(doc)
	}
}

// source names the read-through layer that produced an experiment
// response: the vz_experiment_source_total label and the
// Server-Timing description.
type source uint8

const (
	srcMemo source = iota
	srcStore
	srcCluster
	srcCompute
	numSources
)

var sourceNames = [numSources]string{"memo", "store", "cluster", "compute"}

// Response header values are shared, never mutated slices, so writing
// a memoized document allocates no header storage.
var (
	jsonContentType = []string{"application/json; charset=utf-8"}
	csvContentType  = []string{"text/csv; charset=utf-8"}
	serverTiming    = func() (v [numSources][]string) {
		for i, name := range sourceNames {
			v[i] = []string{"source;desc=" + name}
		}
		return v
	}()
)

// renderJSON encodes v exactly as the API serves it: two-space
// indented JSON with a trailing newline.
func renderJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// renderTable renders both served forms of an experiment table.
func renderTable(t *core.Table) (*document, error) {
	body, err := renderJSON(tableJSON{Caption: t.Caption, Header: t.Header, Rows: t.Rows})
	if err != nil {
		return nil, err
	}
	return &document{json: body, csv: []byte(t.CSV())}, nil
}

// writeBody answers 200 with a fully rendered body in one Write.
func writeBody(w http.ResponseWriter, contentType []string, body []byte) {
	w.Header()["Content-Type"] = contentType
	if _, err := w.Write(body); err != nil {
		log.Printf("httpapi: write %d-byte response: %v", len(body), err)
	}
}
