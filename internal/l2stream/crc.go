package l2stream

import "hash/crc32"

// castagnoli is the checksum table for stream files and derived
// sidecar payloads (CRC-32C, the polynomial with hardware support on
// amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Some checksums cover bytes that are written or read out of order:
// a store file's header scalars come first in its checksum but are
// known only once the capture ends, and the access view's two columns
// are written and read side by side. crc32Combine joins the CRCs of
// such pieces, as zlib's crc32_combine does for its polynomial, so no
// piece is read twice or held back.

// crc32cPoly is the Castagnoli polynomial in reversed bit order.
const crc32cPoly = 0x82f63b78

// crc32Combine returns the CRC-32C of a||b given crcA = CRC-32C(a),
// crcB = CRC-32C(b) and lenB = len(b).
func crc32Combine(crcA, crcB uint32, lenB int64) uint32 {
	return multModP(x2nModP(lenB, 3), crcA) ^ crcB
}

// multModP multiplies a and b modulo the polynomial, both in reversed
// bit order (bit 31 is x^0).
func multModP(a, b uint32) uint32 {
	m := uint32(1) << 31
	p := uint32(0)
	for {
		if a&m != 0 {
			p ^= b
			if a&(m-1) == 0 {
				return p
			}
		}
		m >>= 1
		if b&1 != 0 {
			b = b>>1 ^ crc32cPoly
		} else {
			b >>= 1
		}
	}
}

// x2nTable[k] is x^(2^k) modulo the polynomial.
var x2nTable = func() (t [32]uint32) {
	p := uint32(1) << 30 // x^1
	for k := range t {
		t[k] = p
		p = multModP(p, p)
	}
	return t
}()

// x2nModP returns x^(n * 2^k) modulo the polynomial.
func x2nModP(n int64, k uint) uint32 {
	p := uint32(1) << 31 // x^0
	for ; n != 0; n >>= 1 {
		if n&1 != 0 {
			p = multModP(x2nTable[k&31], p)
		}
		k++
	}
	return p
}
