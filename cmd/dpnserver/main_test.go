package main

import (
	"bytes"
	"encoding/gob"
	"testing"

	"dpn/internal/blockcodec"
	"dpn/internal/factor"
	"dpn/internal/meta"
	"dpn/internal/proclib"
	"dpn/internal/workload"
)

// TestCodebaseShipsAsAny pins the server's codebase: one value of each
// kind of type a client ships to a server must cross gob as an
// interface value, which only a type registered in non-test code of
// a package this binary links can do. The test binary links those
// packages without their tests, so a registration that moved into a
// _test.go file fails here.
func TestCodebaseShipsAsAny(t *testing.T) {
	for _, v := range []any{
		&workload.ShardByKey{}, &workload.WindowReduce{}, &workload.MergeByTag{},
		&proclib.Scale{}, &meta.Worker{}, &factor.SearchTask{}, &blockcodec.CompressTask{},
	} {
		var buf bytes.Buffer
		var got any
		if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
			t.Errorf("%T: encode: %v", v, err)
		} else if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
			t.Errorf("%T: decode: %v", v, err)
		}
	}
}
