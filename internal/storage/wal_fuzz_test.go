package storage

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzDecodeRecordInto feeds arbitrary bytes to the WAL record decoder.
// It must never panic; whatever it accepts must lie within the input
// and survive an encode/decode round trip unchanged. The LSN the
// decoder expects is taken from the input's own header so that the
// fuzzer reaches the record bodies.
func FuzzDecodeRecordInto(f *testing.F) {
	for _, r := range []*LogRecord{
		{Type: RecCommit, LSN: 7, Tx: 3},
		{Type: RecHeapInsert, LSN: 7, Tx: 3, Page: 9, Slot: 2, After: []byte("row")},
		{Type: RecHeapUpdate, LSN: 7, Tx: 3, Page: 9, Slot: 2, Before: []byte("a"), After: []byte("bc")},
		{Type: RecHeapDelete, LSN: 7, Tx: 3, Page: 9, Slot: 2, Before: []byte("row")},
		{Type: RecPageImage, LSN: 7, Page: 9, After: make([]byte, 32)},
		{Type: RecIdxInsert, LSN: 7, Tx: 3, Idx: 1, Page: 4, Key: -5, RID: RID{Page: 9, Slot: 2}},
		{Type: RecCheckpoint, LSN: 7, Key: 5, Active: map[uint64]uint64{3: 6, 4: 7}},
	} {
		f.Add(encodeRecord(r))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var lsn uint64
		if len(b) >= 13 {
			lsn = binary.LittleEndian.Uint64(b[5:])
		}
		var r LogRecord
		n := decodeRecordInto(&r, b, lsn)
		if n == 0 {
			return
		}
		if n < 21 || n > uint64(len(b)) {
			t.Fatalf("decoded length %d outside [21, %d]", n, len(b))
		}
		enc := encodeRecord(&r)
		var again LogRecord
		if m := decodeRecordInto(&again, enc, r.LSN); m != uint64(len(enc)) {
			t.Fatalf("re-encoded record decodes to length %d, want %d", m, len(enc))
		}
		if !reflect.DeepEqual(r, again) {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", again, r)
		}
	})
}
