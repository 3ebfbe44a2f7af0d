package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"stackcache/internal/vm"
)

// On-disk unit format ("STKART02"):
//
//	magic    8  "STKART02"
//	checksum 32 SHA-256 over the payload that follows
//	payload:
//	  fingerprint  u16 len + bytes   (must match the opening store's)
//	  quickened    u8
//	  quickenedOps u32
//	  optimized    u8
//	  optimizedOps u32 count (always vm.NumOptPasses), then u32 per pass
//	  program      u32 len + vm.Encode image (STKCACH1, self-validating)
//	  facts:
//	    proved     u8
//	    maxDepth maxRDepth depthCap rdepthCap  i64 ×4
//	    pcs        u32 count, then per pc: reachable u8, depth.lo/hi i64, rdepth.lo/hi i64
//	    violations u32 count, then per entry: pc i64, msg u16 len + bytes
//
// The checksum is the integrity gate: any mismatch (truncation, bit
// rot, partial write) makes the entry corrupt, and corrupt entries are
// deleted and recomputed from source — never trusted. Little-endian
// throughout, mirroring the vm image format. STKART01 files (the
// pre-optimizer format) fail the magic check and recompute; a format
// bump is the honest way to change the payload shape.

const (
	unitMagic = "STKART02"
	// maxUnitSection bounds any length field read from disk before
	// allocation, same cap as the vm image decoder.
	maxUnitSection = 1 << 28
)

var errCorruptUnit = errors.New("artifact: corrupt unit file")

func ensureDir(dir string) {
	// Best effort: a failed mkdir surfaces as persist errors later.
	_ = os.MkdirAll(dir, 0o755)
}

// unitPath maps a store key to its file: hex SHA-256 of the key, so
// arbitrary key bytes (hashes, fingerprints, separators) never meet
// the filesystem.
func unitPath(dir, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(dir, hex.EncodeToString(sum[:])+".unit")
}

// loadDisk resolves key from the disk tier. A missing file is a plain
// miss; an unreadable, checksum-mismatched, undecodable, or
// wrong-fingerprint file counts as corrupt, is deleted, and reads as a
// miss so the caller rebuilds from source.
func (s *Store) loadDisk(key string) (*Unit, bool) {
	path := unitPath(s.cfg.Dir, key)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	u, err := decodeUnit(raw, key, s.fp)
	if err != nil {
		s.corrupt.Add(1)
		_ = os.Remove(path)
		return nil, false
	}
	return u, true
}

// persistDisk writes the unit atomically: temp file in the same
// directory, then rename, so a crashed writer leaves either the old
// entry or none — never a torn one (torn temp files fail the checksum
// anyway).
func (s *Store) persistDisk(u *Unit) error {
	payload, err := encodeUnit(u, s.fp)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(payload)
	buf := make([]byte, 0, len(unitMagic)+len(sum)+len(payload))
	buf = append(buf, unitMagic...)
	buf = append(buf, sum[:]...)
	buf = append(buf, payload...)

	dir := s.cfg.Dir
	ensureDir(dir)
	tmp, err := os.CreateTemp(dir, ".unit-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), unitPath(dir, u.Key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

func encodeUnit(u *Unit, fingerprint string) ([]byte, error) {
	img, err := vm.Encode(u.Prog)
	if err != nil {
		return nil, err
	}
	f := u.Facts()
	var b []byte
	b = appendStr16(b, fingerprint)
	b = appendBool(b, u.Quickened)
	b = appendU32(b, uint32(u.QuickenedOps))
	b = appendBool(b, u.Optimized)
	b = appendU32(b, uint32(len(u.OptimizedOps)))
	for _, n := range u.OptimizedOps {
		b = appendU32(b, uint32(n))
	}
	b = appendU32(b, uint32(len(img)))
	b = append(b, img...)
	b = appendBool(b, f.Proved)
	b = appendI64(b, int64(f.MaxDepth))
	b = appendI64(b, int64(f.MaxRDepth))
	b = appendI64(b, int64(f.DepthCap))
	b = appendI64(b, int64(f.RDepthCap))
	b = appendU32(b, uint32(len(f.PCs)))
	for _, pc := range f.PCs {
		b = appendBool(b, pc.Reachable)
		b = appendI64(b, int64(pc.Depth.Lo))
		b = appendI64(b, int64(pc.Depth.Hi))
		b = appendI64(b, int64(pc.RDepth.Lo))
		b = appendI64(b, int64(pc.RDepth.Hi))
	}
	b = appendU32(b, uint32(len(f.Violations)))
	for _, v := range f.Violations {
		b = appendI64(b, int64(v.PC))
		b = appendStr16(b, v.Msg)
	}
	return b, nil
}

func decodeUnit(raw []byte, key, fingerprint string) (*Unit, error) {
	if len(raw) < len(unitMagic)+sha256.Size || string(raw[:len(unitMagic)]) != unitMagic {
		return nil, errCorruptUnit
	}
	var want [sha256.Size]byte
	copy(want[:], raw[len(unitMagic):len(unitMagic)+sha256.Size])
	payload := raw[len(unitMagic)+sha256.Size:]
	if sha256.Sum256(payload) != want {
		return nil, errCorruptUnit
	}

	r := &unitReader{b: payload}
	fp := r.str16()
	quickened := r.bool()
	quickenedOps := r.u32()
	optimized := r.bool()
	nPasses := int(r.u32())
	if r.err == nil && nPasses != int(vm.NumOptPasses) {
		// A pass-set change invalidates the per-pass counters; treat
		// the entry as corrupt and recompute.
		return nil, errCorruptUnit
	}
	var optimizedOps [vm.NumOptPasses]int
	for i := 0; i < nPasses && r.err == nil; i++ {
		optimizedOps[i] = int(r.u32())
	}
	img := r.bytes(int(r.u32()))
	if r.err != nil {
		return nil, r.err
	}
	if fp != fingerprint {
		return nil, fmt.Errorf("artifact: unit fingerprint %q, store wants %q", fp, fingerprint)
	}
	// vm.Decode re-runs the structural validator over the image, so a
	// checksum-valid file still cannot smuggle malformed bytecode in.
	prog, err := vm.Decode(img)
	if err != nil {
		return nil, err
	}

	f := &vm.Facts{
		Proved:    r.bool(),
		MaxDepth:  int(r.i64()),
		MaxRDepth: int(r.i64()),
		DepthCap:  int(r.i64()),
		RDepthCap: int(r.i64()),
	}
	nPCs := int(r.u32())
	if r.err == nil && (nPCs < 0 || nPCs > maxUnitSection) {
		return nil, errCorruptUnit
	}
	if r.err == nil && nPCs > 0 {
		f.PCs = make([]vm.PCFact, nPCs)
		for i := 0; i < nPCs && r.err == nil; i++ {
			f.PCs[i] = vm.PCFact{
				Reachable: r.bool(),
				Depth:     vm.Interval{Lo: int(r.i64()), Hi: int(r.i64())},
				RDepth:    vm.Interval{Lo: int(r.i64()), Hi: int(r.i64())},
			}
		}
	}
	nViol := int(r.u32())
	if r.err == nil && (nViol < 0 || nViol > maxUnitSection) {
		return nil, errCorruptUnit
	}
	for i := 0; i < nViol && r.err == nil; i++ {
		f.Violations = append(f.Violations, vm.Violation{
			PC:  int(r.i64()),
			Msg: r.str16(),
		})
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, errCorruptUnit
	}

	u := newUnit(key, prog)
	u.Quickened = quickened
	u.QuickenedOps = int(quickenedOps)
	u.Optimized = optimized
	u.OptimizedOps = optimizedOps
	u.facts = f
	return u, nil
}

// append helpers (little-endian, mirroring internal/vm's image codec).

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendI64(b []byte, v int64) []byte  { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendStr16(b []byte, s string) []byte {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	b = appendU16(b, uint16(len(s)))
	return append(b, s...)
}

// unitReader is a bounds-checked cursor over the payload; the first
// out-of-range read latches err and every later read returns zero.
type unitReader struct {
	b   []byte
	off int
	err error
}

func (r *unitReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > maxUnitSection || r.off+n > len(r.b) {
		r.err = errCorruptUnit
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *unitReader) bool() bool {
	b := r.bytes(1)
	return len(b) == 1 && b[0] != 0
}

func (r *unitReader) u16() uint16 {
	b := r.bytes(2)
	if len(b) != 2 {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *unitReader) u32() uint32 {
	b := r.bytes(4)
	if len(b) != 4 {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *unitReader) i64() int64 {
	b := r.bytes(8)
	if len(b) != 8 {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func (r *unitReader) str16() string {
	n := int(r.u16())
	return string(r.bytes(n))
}
