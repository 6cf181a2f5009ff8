package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzDecodeRequest feeds arbitrary bodies to every endpoint's request
// decoding and validation, and builds the accepted shapes of at most 64
// ranks. Nothing may panic, a body decode refuses must get 400, and
// every later rejection must be an ErrInvalid.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(`{"algorithm":"hm-allreduce","nodes":4611686018427387904,"gpus_per_node":4}`)
	f.Add(`{"algorithm":"hm-allreduce","nodes":3,"gpus_per_node":4611686018427387904}`)
	f.Add(okBody)
	f.Add(`{"algorithm":"ring-allreduce","nodes":1,"gpus_per_node":4,"buffer_bytes":1048576,"chunk_bytes":262144}`)
	f.Add(`{"algorithm":"hm-allgather","nodes":2,"gpus_per_node":2,"fabric":"rail","backend":"msccl","buffer_bytes":65536}`)
	f.Add(`{"algorithm":"ring-allreduce","nodes":1,"gpus_per_node":4,"tenant":"` + strings.Repeat("x", 200) + `"}`)
	f.Add(`{"algorithm":"ring-allreduce","nodes":1,"gpus_per_node":4,"buffer_bytes":9223372036854775807,"chunk_bytes":4611686018427387904}`)
	f.Fuzz(func(t *testing.T, body string) {
		var c CompileRequest
		var s SimulateRequest
		var a AnalyzeRequest
		endpoints := []struct {
			dst        any
			req        *CompileRequest
			buf, chunk *int64
		}{
			{&c, &c, new(int64), new(int64)},
			{&s, &s.CompileRequest, &s.BufferBytes, &s.ChunkBytes},
			{&a, &a.CompileRequest, &a.BufferBytes, new(int64)},
		}
		for _, ep := range endpoints {
			w := httptest.NewRecorder()
			if !decode(w, httptest.NewRequest("POST", "/", strings.NewReader(body)), ep.dst) {
				if w.Code != http.StatusBadRequest {
					t.Fatalf("decode refused %q with status %d, want 400", body, w.Code)
				}
				continue
			}
			err := ep.req.validate()
			if err == nil {
				_, err = payload(*ep.buf, *ep.chunk)
			}
			if err == nil && ep.req.Nodes*ep.req.GPUsPerNode <= 64 {
				_, _, err = ep.req.build()
			}
			if err != nil && !errors.Is(err, ErrInvalid) {
				t.Fatalf("%q rejected with %v, want ErrInvalid", body, err)
			}
		}
	})
}
