package sunrpc

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// errReadTooFar stops endlessFragments once a reader has consumed far
// more than any record may hold.
var errReadTooFar = errors.New("read far past MaxRecord")

// endlessFragments is a stream of non-final 64 KiB fragments that never
// ends: a peer that never sets the last-fragment bit.
type endlessFragments struct{ off int }

func (e *endlessFragments) Read(p []byte) (int, error) {
	const frag = 64 << 10
	if e.off > 4*MaxRecord {
		return 0, errReadTooFar
	}
	for i := range p {
		switch e.off % (MarkSize + frag) {
		case 1:
			p[i] = 0x01 // mark 0x00010000: 64 KiB, not last
		case 0, 2, 3:
			p[i] = 0
		default:
			p[i] = 0xab
		}
		e.off++
	}
	return len(p), nil
}

func TestReadRecordBoundsEndlessFragments(t *testing.T) {
	_, err := ReadRecordInto(bufio.NewReader(&endlessFragments{}), nil)
	if err == nil || errors.Is(err, errReadTooFar) {
		t.Fatalf("endless non-final fragments: err = %v, want rejection past MaxRecord", err)
	}
}

// splitReader delivers data in two reads split at cut, then EOF.
type splitReader struct {
	data []byte
	cut  int
}

func (s *splitReader) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	end := len(s.data)
	if s.cut > 0 && s.cut < end {
		end = s.cut
	}
	n := copy(p, s.data[:end])
	s.data = s.data[n:]
	s.cut -= n
	return n, nil
}

// fragmentStream frames each message as fragments of at most frag bytes
// (a final empty fragment for an empty message) and concatenates them.
func fragmentStream(msgs [][]byte, frag int) []byte {
	var out []byte
	for _, m := range msgs {
		for {
			n := len(m)
			if n > frag {
				n = frag
			}
			mark := uint32(n)
			if n == len(m) {
				mark |= lastFragmentBit
			}
			out = append(out, byte(mark>>24), byte(mark>>16), byte(mark>>8), byte(mark))
			out = append(out, m[:n]...)
			m = m[n:]
			if mark&lastFragmentBit != 0 {
				break
			}
		}
	}
	return out
}

// TestReadRecordEveryByteBoundary: a buffered reader frames pipelined
// multi-fragment records correctly wherever the socket splits the
// stream — at every byte boundary, and one byte per read.
func TestReadRecordEveryByteBoundary(t *testing.T) {
	msgs := [][]byte{[]byte("abcdefg"), {}, []byte("x"), bytes.Repeat([]byte{7}, 23)}
	stream := fragmentStream(msgs, 5)
	check := func(name string, r io.Reader) {
		t.Helper()
		// A 16-byte buffer (bufio's minimum) forces records across refills.
		br := bufio.NewReaderSize(r, 16)
		var buf []byte
		for i, want := range msgs {
			got, err := ReadRecordInto(br, buf)
			if err != nil {
				t.Fatalf("%s: record %d: %v", name, i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: record %d = %q, want %q", name, i, got, want)
			}
			buf = got
		}
		if _, err := ReadRecordInto(br, buf); !errors.Is(err, io.EOF) {
			t.Fatalf("%s: after last record: %v, want EOF", name, err)
		}
	}
	for cut := 1; cut < len(stream); cut++ {
		check("split", &splitReader{data: stream, cut: cut})
	}
	check("one byte per read", iotest.OneByteReader(bytes.NewReader(stream)))
}

// FuzzReadRecord: arbitrary bytes through a buffered reader never
// panic, and no record comes back longer than MaxRecord.
func FuzzReadRecord(f *testing.F) {
	f.Add(fragmentStream([][]byte{[]byte("hello"), {}}, 2))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x00, 0x0f, 0xff, 0xff, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for {
			rec, err := ReadRecordInto(br, buf)
			if err != nil {
				return
			}
			if len(rec) > MaxRecord {
				t.Fatalf("record of %d bytes exceeds MaxRecord", len(rec))
			}
			buf = rec
		}
	})
}

// loopReader replays data forever.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off = (l.off + n) % len(l.data)
	return n, nil
}

var sinkRecord []byte

// BenchmarkReadRecordInto frames pipelined records off a buffered
// reader into a recycled buffer, as the TCP read loops do.
func BenchmarkReadRecordInto(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"128B", 128}, {"32KiB", 32 << 10}} {
		b.Run(size.name, func(b *testing.B) {
			msgs := make([][]byte, 16)
			for i := range msgs {
				msgs[i] = bytes.Repeat([]byte{byte(i)}, size.n)
			}
			br := bufio.NewReaderSize(&loopReader{data: fragmentStream(msgs, MaxRecord)}, 32<<10)
			buf := make([]byte, 0, 64<<10)
			b.SetBytes(int64(size.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec, err := ReadRecordInto(br, buf)
				if err != nil {
					b.Fatal(err)
				}
				buf = rec
			}
			sinkRecord = buf
		})
	}
}
