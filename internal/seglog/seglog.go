// Package seglog owns the on-disk log format shared by every durable
// file of the serving stack: the cluster job journal (snapshot.wal,
// journal.wal), the result store (results.seg) and the fleet claims region
// (claims.seg). The owners keep only their record codecs and the index
// they fold records into; framing, scanning, torn-tail truncation,
// durable appends and atomic replacement live here, once.
//
// # Frame format
//
// A log file is a sequence of frames:
//
//	uint32-LE payload length | uint32-LE CRC-32C (Castagnoli) of payload | payload
//
// A payload is at most MaxPayload (64 MiB) bytes; records are kilobytes,
// so a larger declared length is corruption, not data. The payload
// encoding belongs to the owner (all three use one JSON document).
//
// # Crash safety
//
// A scan walks frames from the start and stops at the first frame that is
// torn (shorter than its header or its declared length) or fails its CRC:
// past it the frame boundaries are lost. The bytes before that point are
// the valid prefix. A CRC-valid frame whose payload the owner cannot
// decode is skipped and counted; the framing past it is still intact.
// Records are therefore applied completely or not at all.
//
// A writable Log cuts its file back to the valid prefix when it scans, and
// every append writes at the end of the valid prefix rather than at the
// end of the file. An append that failed half-way (a short write on a full
// disk) or a writer that died mid-frame leaves garbage only past the valid
// prefix, so the next append overwrites it instead of landing behind a
// tear that a later replay would stop at. An append returns only after
// fsync (unless the owner runs with NoSync, which benchmarks use), so an
// acknowledged record survives power loss.
//
// Files are rewritten (compaction, the fencing epoch, the writer
// heartbeat) by writing a temporary file in the same directory, fsyncing
// it, renaming it over the target and fsyncing the directory. The rename
// is atomic, so a crash leaves either the complete old file or the
// complete new one, never a mix. A reader holding the old file detects the
// rename by its changed inode (Log.Reopen) and rescans the new one.
package seglog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// HeaderSize is the length of a frame header: payload length and CRC.
const HeaderSize = 8

// MaxPayload bounds one frame's payload.
const MaxPayload = 64 << 20

// ErrChecksum reports a frame whose payload no longer matches its CRC.
var ErrChecksum = errors.New("seglog: frame failed CRC verification")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one CRC-valid frame found by a scan or written by Append.
type Record struct {
	// Off is the frame's start offset: within the scanned buffer for
	// Scan, within the file for a Log.
	Off     int64
	Payload []byte // aliases the scanned buffer
	CRC     uint32
}

// Size is the framed size of the record, header included.
func (r Record) Size() int64 { return HeaderSize + int64(len(r.Payload)) }

// AppendFrame appends payload, framed, to dst.
func AppendFrame(dst, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return dst, fmt.Errorf("seglog: record of %d bytes exceeds frame limit", len(payload))
	}
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	return append(append(dst, hdr[:]...), payload...), nil
}

// Scan walks the frames of data and returns the length of the valid
// prefix and the number of CRC-valid frames decode rejected. decode is
// called for every CRC-valid frame in order and reports whether it could
// decode the payload.
func Scan(data []byte, decode func(Record) bool) (valid int64, skipped int) {
	for {
		rest := data[valid:]
		if len(rest) < HeaderSize {
			return valid, skipped
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n > MaxPayload || int64(n) > int64(len(rest)-HeaderSize) {
			return valid, skipped
		}
		payload := rest[HeaderSize : HeaderSize+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			return valid, skipped
		}
		if !decode(Record{Off: valid, Payload: payload, CRC: sum}) {
			skipped++
		}
		valid += HeaderSize + int64(n)
	}
}

// Log is one log file held open. Its methods are not safe for concurrent
// use; owners serialise them under their own mutex (and, for files shared
// between processes, a flock).
type Log struct {
	path   string
	flag   int
	f      *os.File
	end    int64 // end of the valid prefix scanned or appended so far
	noSync bool
	hook   func(stage string)
}

// Open opens path for scanning and appending, creating it if missing.
// With noSync, appends skip fsync. hook, when non-nil, is called at the
// stages "pre-append", "pre-sync" and "post-sync" of Append and
// "pre-rename" and "post-rename" of Replace, so fault-injection tests can
// crash the owner at exact points.
func Open(path string, noSync bool, hook func(stage string)) (*Log, error) {
	return open(path, os.O_CREATE|os.O_RDWR, noSync, hook)
}

// OpenReader opens an existing path for scanning only: the Log never
// truncates or appends. A missing file is an error matching
// os.ErrNotExist.
func OpenReader(path string) (*Log, error) {
	return open(path, os.O_RDONLY, false, nil)
}

func open(path string, flag int, noSync bool, hook func(string)) (*Log, error) {
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return &Log{path: path, flag: flag, f: f, noSync: noSync, hook: hook}, nil
}

func (l *Log) fire(stage string) {
	if l.hook != nil {
		l.hook(stage)
	}
}

// Size is the length of the valid prefix scanned or appended so far.
func (l *Log) Size() int64 { return l.end }

// ScanTail scans the file from the end of the valid prefix to EOF,
// passing each CRC-valid frame (Off relative to the file) to decode, and
// advances the prefix. A writable Log truncates whatever follows the new
// prefix and reports the bytes cut; a reader leaves them for the next
// scan, since the writer may still be appending.
func (l *Log) ScanTail(decode func(Record) bool) (skipped int, cut int64, err error) {
	size, err := l.f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, 0, fmt.Errorf("seglog: seek %s: %w", l.path, err)
	}
	if size <= l.end {
		return 0, 0, nil
	}
	data := make([]byte, size-l.end)
	if _, err := l.f.ReadAt(data, l.end); err != nil {
		return 0, 0, fmt.Errorf("seglog: read %s: %w", l.path, err)
	}
	base := l.end
	valid, skipped := Scan(data, func(r Record) bool {
		r.Off += base
		return decode(r)
	})
	l.end += valid
	if l.flag == os.O_RDONLY || l.end == size {
		return skipped, 0, nil
	}
	if err := l.f.Truncate(l.end); err != nil {
		return skipped, 0, fmt.Errorf("seglog: truncate %s: %w", l.path, err)
	}
	return skipped, size - l.end, nil
}

// Append frames payload, writes it at the end of the valid prefix and
// fsyncs it. The record is durable when Append returns without error; on
// error the file is cut back to the valid prefix (best-effort) and the
// prefix is unchanged, so the next append overwrites whatever the failed
// one left.
func (l *Log) Append(payload []byte) (Record, error) {
	frame, err := AppendFrame(nil, payload)
	if err != nil {
		return Record{}, err
	}
	l.fire("pre-append")
	if _, err := l.f.WriteAt(frame, l.end); err != nil {
		_ = l.f.Truncate(l.end) // best-effort: the next append overwrites the bytes anyway
		return Record{}, fmt.Errorf("seglog: write %s: %w", l.path, err)
	}
	l.fire("pre-sync")
	if !l.noSync {
		if err := l.f.Sync(); err != nil {
			_ = l.f.Truncate(l.end) // best-effort, as above
			return Record{}, fmt.Errorf("seglog: fsync %s: %w", l.path, err)
		}
	}
	l.fire("post-sync")
	rec := Record{Off: l.end, Payload: frame[HeaderSize:], CRC: binary.LittleEndian.Uint32(frame[4:8])}
	l.end += int64(len(frame))
	return rec, nil
}

// Read returns the payload of the frame of size bytes at off, verified
// against crc; a mismatch is ErrChecksum.
func (l *Log) Read(off, size int64, crc uint32) ([]byte, error) {
	payload := make([]byte, size-HeaderSize)
	if _, err := l.f.ReadAt(payload, off+HeaderSize); err != nil {
		return nil, fmt.Errorf("seglog: read %s: %w", l.path, err)
	}
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, ErrChecksum
	}
	return payload, nil
}

// Reopen checks whether the file at the Log's path is still the one it
// holds, by (device, inode). When another handle renamed a new file over
// it (Replace), Reopen switches to the new file, resets the valid prefix
// to zero and reports true; the caller rebuilds its index from a full
// ScanTail. A path missing mid-rename counts as unchanged.
func (l *Log) Reopen() (bool, error) {
	held, err := l.f.Stat()
	if err != nil {
		return false, fmt.Errorf("seglog: stat held %s: %w", l.path, err)
	}
	now, err := os.Stat(l.path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("seglog: stat %s: %w", l.path, err)
	}
	if os.SameFile(held, now) {
		return false, nil
	}
	if err := l.reopen(); err != nil {
		return false, err
	}
	l.end = 0
	return true, nil
}

func (l *Log) reopen() error {
	f, err := os.OpenFile(l.path, l.flag, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: reopen %s: %w", l.path, err)
	}
	l.f.Close()
	l.f = f
	return nil
}

// Replace atomically replaces the file with data, a sequence of frames
// built with AppendFrame, and moves the Log onto the new file with the
// valid prefix at its end. Other handles see the replacement through
// Reopen.
func (l *Log) Replace(data []byte) error {
	if err := WriteFileAtomic(l.path, data, l.hook); err != nil {
		return err
	}
	if err := l.reopen(); err != nil {
		return err
	}
	l.end = int64(len(data))
	return nil
}

// Reset empties the file.
func (l *Log) Reset() error {
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("seglog: reset %s: %w", l.path, err)
	}
	l.end = 0
	return nil
}

// Sync flushes the file to stable storage, whether or not the Log was
// opened with noSync.
func (l *Log) Sync() error { return l.f.Sync() }

// Close closes the file without syncing it.
func (l *Log) Close() error { return l.f.Close() }

// WriteFileAtomic replaces path with data: it writes a temporary file in
// the same directory, fsyncs it, renames it over path and fsyncs the
// directory. hook, when non-nil, is called at "pre-rename" and
// "post-rename". Temporary names are unique, so processes sharing a
// directory never write into each other's temporary file.
func WriteFileAtomic(path string, data []byte, hook func(stage string)) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if hook != nil {
		hook("pre-rename")
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if hook != nil {
		hook("post-rename")
	}
	// Best-effort: some filesystems refuse directory fsync, and the
	// rename is already atomic.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
