// Package wire implements the on-the-wire message-format layer of the
// protocol DSL: bit-granular field layouts in network (big-endian, MSB
// first) order, computed fields (lengths and checksums), byte-exact
// encoding and decoding, and rendering of RFC-style ASCII header
// diagrams (§2.1 of the paper, Figure 1).
//
// Concurrency: Messages and compiled Layouts are immutable and
// shareable across goroutines. The AppendEncode/DecodeInto hot paths
// write into caller-owned buffers and scratch maps, which are
// single-owner — one goroutine (or event loop) each.
package wire

import (
	"errors"
	"fmt"
)

// ErrShortBuffer is returned when a decode runs out of input bytes.
var ErrShortBuffer = errors.New("short buffer")

// bitWriter appends bit fields MSB-first, matching network bit order.
// base is the byte offset where the current message starts in buf; it
// lets AppendEncode serialise into the tail of a caller-owned buffer.
type bitWriter struct {
	buf    []byte
	base   int // byte offset of the message start within buf
	bitLen int // number of bits written for this message
}

// writeBits appends the low n bits of v, most significant bit first.
func (w *bitWriter) writeBits(v uint64, n int) {
	// Fast path: whole bytes at a byte-aligned position.
	if w.bitLen%8 == 0 && n%8 == 0 {
		for i := n - 8; i >= 0; i -= 8 {
			w.buf = append(w.buf, byte(v>>uint(i)))
			w.bitLen += 8
		}
		return
	}
	for i := n - 1; i >= 0; i-- {
		bit := (v >> uint(i)) & 1
		byteIdx := w.base + w.bitLen/8
		if byteIdx >= len(w.buf) {
			w.buf = append(w.buf, 0)
		}
		if bit == 1 {
			w.buf[byteIdx] |= 1 << uint(7-w.bitLen%8)
		}
		w.bitLen++
	}
}

// writeBytes appends whole bytes; the writer must be byte-aligned.
func (w *bitWriter) writeBytes(b []byte) error {
	if w.bitLen%8 != 0 {
		return fmt.Errorf("wire: internal: unaligned byte write at bit %d", w.bitLen)
	}
	w.buf = append(w.buf, b...)
	w.bitLen += 8 * len(b)
	return nil
}

func (w *bitWriter) aligned() bool { return w.bitLen%8 == 0 }

// bitReader consumes bit fields MSB-first.
type bitReader struct {
	buf    []byte
	bitPos int
}

// readBits reads n bits MSB-first. Like the writer's aligned fast path,
// reads proceed a byte at a time rather than a bit at a time: an
// unaligned field costs at most one partial lead byte, whole middle
// bytes, and one partial tail byte — O(bits/8), not O(bits).
func (r *bitReader) readBits(n int) (uint64, error) {
	if r.bitPos+n > 8*len(r.buf) {
		return 0, ErrShortBuffer
	}
	// Fast path: whole bytes at a byte-aligned position.
	if r.bitPos%8 == 0 && n%8 == 0 {
		var v uint64
		for i := 0; i < n; i += 8 {
			v = v<<8 | uint64(r.buf[r.bitPos/8])
			r.bitPos += 8
		}
		return v, nil
	}
	var v uint64
	rem := n
	// Partial lead byte: the bits from bitPos to the next byte boundary
	// (or fewer, if the field ends inside this byte).
	if bit := r.bitPos % 8; bit != 0 {
		avail := 8 - bit
		take := avail
		if rem < take {
			take = rem
		}
		b := r.buf[r.bitPos/8] >> uint(avail-take) // drop bits past the field
		v = uint64(b) & ((1 << uint(take)) - 1)    // drop bits before bitPos
		r.bitPos += take
		rem -= take
	}
	// Whole middle bytes.
	for rem >= 8 {
		v = v<<8 | uint64(r.buf[r.bitPos/8])
		r.bitPos += 8
		rem -= 8
	}
	// Partial tail byte: the high rem bits of the next byte.
	if rem > 0 {
		v = v<<uint(rem) | uint64(r.buf[r.bitPos/8]>>uint(8-rem))
		r.bitPos += rem
	}
	return v, nil
}

// readBytes reads n whole bytes; the reader must be byte-aligned.
func (r *bitReader) readBytes(n int) ([]byte, error) {
	b, err := r.readBytesView(n)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, b)
	return out, nil
}

// readBytesView reads n whole bytes without copying; the returned slice
// aliases the reader's buffer. The reader must be byte-aligned.
func (r *bitReader) readBytesView(n int) ([]byte, error) {
	if r.bitPos%8 != 0 {
		return nil, fmt.Errorf("wire: internal: unaligned byte read at bit %d", r.bitPos)
	}
	start := r.bitPos / 8
	if start+n > len(r.buf) {
		return nil, ErrShortBuffer
	}
	r.bitPos += 8 * n
	return r.buf[start : start+n], nil
}

// remainingBytes returns the count of unread whole bytes.
func (r *bitReader) remainingBytes() int {
	if r.bitPos%8 != 0 {
		return 0
	}
	return len(r.buf) - r.bitPos/8
}

func (r *bitReader) done() bool { return r.bitPos == 8*len(r.buf) }
