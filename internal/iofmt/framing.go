package iofmt

import "encoding/binary"

// Record framing: the uvarint length-prefixed key/value encoding shared
// by the SequenceFile payload format and every other spot in the stack
// that lays records out flat in a byte buffer. The Append/Consume pair is
// allocation-free by construction — AppendRecord extends the caller's
// buffer in place, ConsumeRecord returns subslices of its input — so the
// hot write and scan loops of both runtimes can frame millions of records
// without a single per-record allocation.

// AppendRecord appends one framed record (keyLen key valLen val, lengths
// as uvarints) to dst and returns the extended buffer, in the manner of
// strconv's Append functions. Key and value may each be a string or a
// []byte, so no caller converts (and copies) one into the other.
func AppendRecord[K, V string | []byte](dst []byte, key K, val V) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, uint64(len(val)))
	dst = append(dst, val...)
	return dst
}

// AppendRecordString is AppendRecord for a string key and value.
func AppendRecordString(dst []byte, key, val string) []byte {
	return AppendRecord(dst, key, val)
}

// ConsumeRecord pops one framed record off the front of b, returning the
// key and value as subslices of b plus the remainder. The error is
// ErrCorrupt for a malformed length and ErrTruncated for a buffer that
// ends mid-record.
func ConsumeRecord(b []byte) (key, val, rest []byte, err error) {
	key, rest, err = takeBytes(b)
	if err != nil {
		return nil, nil, nil, err
	}
	val, rest, err = takeBytes(rest)
	if err != nil {
		return nil, nil, nil, err
	}
	return key, val, rest, nil
}
