"""Unit tests for NFS wire types."""

import pytest

from repro.errors import NFSError, XDRError
from repro.fs.ffs import FFS
from repro.nfs.protocol import (
    FHSIZE,
    FileHandle,
    NFSStat,
    SAttr,
    pack_fattr,
    pack_sattr,
    raise_for_status,
    stat_for_error,
    unpack_fattr,
    unpack_sattr,
)
from repro.rpc.xdr import XDRDecoder, XDREncoder


class TestFileHandle:
    def test_roundtrip(self):
        fh = FileHandle(ino=666240, generation=3)
        raw = fh.encode()
        assert len(raw) == FHSIZE
        assert FileHandle.decode(raw) == fh

    def test_of_inode(self):
        fs = FFS()
        inode = fs.create(fs.root_ino, "f")
        fh = FileHandle.of(inode)
        assert fh.ino == inode.ino
        assert fh.generation == inode.generation

    def test_wrong_size_rejected(self):
        with pytest.raises(XDRError):
            FileHandle.decode(b"short")

    def test_file_id_conversion(self):
        fh = FileHandle(ino=5, generation=9)
        fid = fh.file_id()
        assert fid.ino == 5 and fid.generation == 9


class TestFAttr:
    def test_fattr_roundtrip(self):
        fs = FFS()
        inode = fs.create(fs.root_ino, "f", mode=0o640)
        fs.write(inode.ino, 0, b"x" * 10000)
        enc = XDREncoder()
        pack_fattr(enc, inode, fs.block_size)
        attr = unpack_fattr(XDRDecoder(enc.getvalue()))
        assert attr.size == 10000
        assert attr.permission_bits == 0o640
        assert not attr.is_dir
        assert attr.fileid == inode.ino
        assert attr.blocks == 2  # 10000 bytes / 8192 rounded up

    def test_directory_type_bits(self):
        fs = FFS()
        d = fs.mkdir(fs.root_ino, "d", mode=0o755)
        enc = XDREncoder()
        pack_fattr(enc, d, fs.block_size)
        attr = unpack_fattr(XDRDecoder(enc.getvalue()))
        assert attr.is_dir
        assert attr.mode & 0o040000

    def test_times_preserved(self):
        fs = FFS()
        f = fs.create(fs.root_ino, "f")
        fs.setattr(f.ino, atime=1234.5, mtime=5678.25)
        enc = XDREncoder()
        pack_fattr(enc, f, fs.block_size)
        attr = unpack_fattr(XDRDecoder(enc.getvalue()))
        assert attr.atime == pytest.approx(1234.5, abs=1e-3)
        assert attr.mtime == pytest.approx(5678.25, abs=1e-3)


    def test_unknown_ftype_is_xdr_error(self):
        fs = FFS()
        enc = XDREncoder()
        pack_fattr(enc, fs.create(fs.root_ino, "f"), fs.block_size)
        raw = bytearray(enc.getvalue())
        raw[0:4] = (77).to_bytes(4, "big")  # ftype
        with pytest.raises(XDRError):
            unpack_fattr(XDRDecoder(bytes(raw)))


class TestSAttr:
    def test_roundtrip_all_set(self):
        sattr = SAttr(mode=0o600, uid=1, gid=2, size=100, atime=10.0, mtime=20.0)
        enc = XDREncoder()
        pack_sattr(enc, sattr)
        out = unpack_sattr(XDRDecoder(enc.getvalue()))
        assert out.mode == 0o600 and out.uid == 1 and out.gid == 2
        assert out.size == 100
        assert out.atime == pytest.approx(10.0)

    def test_roundtrip_none(self):
        enc = XDREncoder()
        pack_sattr(enc, SAttr())
        out = unpack_sattr(XDRDecoder(enc.getvalue()))
        assert out.mode is None and out.size is None and out.mtime is None


class TestStatusMapping:
    def test_error_mapping(self):
        from repro import errors

        cases = {
            errors.FileNotFound("x"): NFSStat.NFSERR_NOENT,
            errors.FileExists("x"): NFSStat.NFSERR_EXIST,
            errors.NotADirectory("x"): NFSStat.NFSERR_NOTDIR,
            errors.IsADirectory("x"): NFSStat.NFSERR_ISDIR,
            errors.DirectoryNotEmpty("x"): NFSStat.NFSERR_NOTEMPTY,
            errors.NoSpace("x"): NFSStat.NFSERR_NOSPC,
            errors.StaleHandle("x"): NFSStat.NFSERR_STALE,
            errors.NameTooLong("x"): NFSStat.NFSERR_NAMETOOLONG,
            errors.InvalidArgument("x"): NFSStat.NFSERR_INVAL,
            errors.PermissionDenied("x"): NFSStat.NFSERR_ACCES,
        }
        for exc, stat in cases.items():
            assert stat_for_error(exc) == stat

    def test_unknown_maps_to_io(self):
        from repro.errors import FSError

        assert stat_for_error(FSError("x")) == NFSStat.NFSERR_IO

    def test_raise_for_status(self):
        raise_for_status(NFSStat.NFS_OK)
        with pytest.raises(NFSError) as excinfo:
            raise_for_status(NFSStat.NFSERR_STALE)
        assert excinfo.value.status == NFSStat.NFSERR_STALE
