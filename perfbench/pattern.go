package main

import "encoding/binary"

// File contents are a deterministic function of (seed, file, generation,
// offset): every 8-byte little-endian word is a hash of its coordinates.
// The benchmark never keeps a copy of what it wrote; it recomputes the
// expected bytes when a READ reply or a read-back arrives.

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// pattern names the contents of one generation of one file.
type pattern struct {
	base uint64
}

func newPattern(seed int64, file, gen int) pattern {
	return pattern{base: mix64(uint64(seed)) ^ uint64(file)*0x9e3779b97f4a7c15 ^ uint64(gen)*0xd1b54a32d192ed03}
}

// word returns the 8-byte word at word index w.
func (p pattern) word(w uint64) uint64 { return mix64(p.base + w) }

// byteAt returns the byte at offset off.
func (p pattern) byteAt(off uint64) byte { return byte(p.word(off/8) >> (8 * (off % 8))) }

// fill writes the pattern bytes for [off, off+len(dst)) into dst.
func (p pattern) fill(dst []byte, off uint64) {
	i := 0
	for ; i < len(dst) && (off+uint64(i))%8 != 0; i++ {
		dst[i] = p.byteAt(off + uint64(i))
	}
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], p.word((off+uint64(i))/8))
	}
	for ; i < len(dst); i++ {
		dst[i] = p.byteAt(off + uint64(i))
	}
}

// matches reports whether data equals the pattern bytes at off.
func (p pattern) matches(data []byte, off uint64) bool {
	i := 0
	for ; i < len(data) && (off+uint64(i))%8 != 0; i++ {
		if data[i] != p.byteAt(off+uint64(i)) {
			return false
		}
	}
	for ; i+8 <= len(data); i += 8 {
		if binary.LittleEndian.Uint64(data[i:]) != p.word((off+uint64(i))/8) {
			return false
		}
	}
	for ; i < len(data); i++ {
		if data[i] != p.byteAt(off+uint64(i)) {
			return false
		}
	}
	return true
}
