"""RISC-V trace ingestion frontend: decoder, codecs, adapter, registry."""

import os

import pytest

from repro.config import dynamic_config
from repro.experiments.cache import result_key
from repro.isa import OpClass, REG_INVALID
from repro.workloads import (UnknownProgramError, ensure_program,
                             known_program, profile, program_cache_identity,
                             trace_for_program)
from repro.workloads.riscv import (RiscvTraceProgram, RvInsn,
                                   TraceFormatError, build_kernel,
                                   content_hash, kernel_names,
                                   load_corpus_program, pack, parse_text,
                                   render_text, riscv_program_names,
                                   to_micro_op, unpack)
from repro.workloads.riscv import corpus as corpus_mod
from repro.workloads.riscv.format import validate_insn


def _validated(insn: RvInsn) -> RvInsn:
    validate_insn(insn)
    return insn


# ---------------------------------------------------------------- decoder


class TestDecoder:
    def test_load_decodes_with_size_and_address(self):
        op = to_micro_op(_validated(
            RvInsn(0x400000, "lw", rd=6, rs1=5, addr=0x80001000)))
        assert op.op is OpClass.LOAD and op.is_load
        assert op.dst == 6 and op.srcs == (5,)
        assert op.addr == 0x80001000 and op.size == 4

    def test_store_has_no_destination(self):
        op = to_micro_op(_validated(
            RvInsn(0x400000, "sd", rs1=5, rs2=6, addr=0x80001000)))
        assert op.op is OpClass.STORE and op.dst == REG_INVALID
        assert set(op.srcs) == {5, 6} and op.size == 8

    def test_x0_creates_no_dependences(self):
        op = to_micro_op(_validated(RvInsn(0x400000, "addi", rd=0, rs1=0)))
        assert op.dst == REG_INVALID and op.srcs == ()

    def test_branch_taken_and_fallthrough_targets(self):
        taken = to_micro_op(_validated(
            RvInsn(0x400008, "bne", rs1=5, rs2=0, taken=True,
                   target=0x400000)))
        assert taken.is_branch and taken.taken and taken.target == 0x400000
        not_taken = to_micro_op(_validated(
            RvInsn(0x400008, "bne", rs1=5, rs2=0, taken=False,
                   target=0x400000)))
        assert not not_taken.taken
        assert not_taken.target == 0x40000C  # fall-through convention

    def test_jal_is_always_taken_without_link_dependence(self):
        op = to_micro_op(_validated(
            RvInsn(0x400010, "jal", rd=1, target=0x400000)))
        assert op.is_branch and op.taken and op.target == 0x400000
        assert op.dst == REG_INVALID

    def test_op_class_table(self):
        cases = {"mul": OpClass.IMUL, "divu": OpClass.IDIV,
                 "xor": OpClass.IALU, "lbu": OpClass.LOAD,
                 "sb": OpClass.STORE, "beq": OpClass.BRANCH}
        for mnem, cls in cases.items():
            from repro.workloads.riscv.isa import MNEMONIC_CLASS
            assert MNEMONIC_CLASS[mnem] is cls

    def test_unknown_opcode_rejected(self):
        with pytest.raises(TraceFormatError, match="unknown opcode"):
            validate_insn(RvInsn(0x400000, "vadd.vv", rd=1, rs1=2, rs2=3))

    def test_misaligned_load_address_passes_through(self):
        op = to_micro_op(_validated(
            RvInsn(0x400000, "ld", rd=6, rs1=5, addr=0x80001003)))
        assert op.addr == 0x80001003  # no realignment, no rejection

    def test_structural_validation(self):
        with pytest.raises(TraceFormatError, match="without an effective"):
            validate_insn(RvInsn(0x400000, "ld", rd=6, rs1=5))
        with pytest.raises(TraceFormatError, match="out of range"):
            validate_insn(RvInsn(0x400000, "add", rd=32, rs1=1))
        with pytest.raises(TraceFormatError, match="taken flag"):
            validate_insn(RvInsn(0x400000, "beq", rs1=1, rs2=2,
                                 target=0x400010))
        with pytest.raises(TraceFormatError, match="non-branch"):
            validate_insn(RvInsn(0x400000, "add", rd=1, rs1=2, taken=True))


# ----------------------------------------------------------------- codecs


class TestCodecs:
    def test_text_binary_microop_roundtrip(self):
        insns = build_kernel("bsort", 512)
        text = render_text("bsort", insns)
        name, from_text = parse_text(text)
        assert name == "bsort" and from_text == insns
        name2, from_bin = unpack(pack(name, from_text))
        assert name2 == "bsort" and from_bin == insns
        assert content_hash(from_bin) == content_hash(insns)
        ops_a = [to_micro_op(i) for i in insns]
        ops_b = [to_micro_op(i) for i in from_bin]
        for a, b in zip(ops_a, ops_b):
            assert (a.pc, a.op, a.dst, a.srcs, a.addr, a.size, a.taken,
                    a.target) == (b.pc, b.op, b.dst, b.srcs, b.addr,
                                  b.size, b.taken, b.target)

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceFormatError, match="empty trace"):
            parse_text("# rvtrace v1 name=void\n")
        with pytest.raises(TraceFormatError, match="empty trace"):
            pack("void", [])

    def test_truncated_packed_record_rejected(self):
        blob = pack("t", build_kernel("matmul", 64))
        with pytest.raises(TraceFormatError):
            unpack(blob[:-3])

    def test_corrupt_magic_and_version_rejected(self):
        blob = pack("t", build_kernel("matmul", 64))
        with pytest.raises(TraceFormatError, match="magic"):
            unpack(b"NOPE" + blob[4:])
        with pytest.raises(TraceFormatError, match="version"):
            unpack(blob[:4] + bytes([99]) + blob[5:])

    def test_text_errors_name_the_line(self):
        with pytest.raises(TraceFormatError, match="line 2"):
            parse_text("# rvtrace v1 name=x\n0x4 addi x1 x0 - - - extra!\n")

    def test_content_hash_tracks_content_not_name(self):
        insns = build_kernel("matmul", 128)
        assert content_hash(insns) == content_hash(list(insns))
        mutated = list(insns)
        mutated[0] = RvInsn(insns[0].pc + 4, insns[0].op, rd=insns[0].rd,
                            rs1=insns[0].rs1, rs2=insns[0].rs2)
        assert content_hash(mutated) != content_hash(insns)


# ---------------------------------------------------------------- kernels


class TestKernels:
    def test_generation_is_deterministic(self):
        for name in kernel_names():
            assert build_kernel(name, 256) == build_kernel(name, 256)

    def test_kernels_have_consistent_control_flow(self):
        for name in kernel_names():
            insns = build_kernel(name, 1024)
            for here, after in zip(insns, insns[1:]):
                if here.target is None:
                    continue
                taken = here.taken if here.taken is not None else True
                expected = here.target if taken else here.pc + 4
                assert after.pc == expected, (name, hex(here.pc))


# ---------------------------------------------------------------- adapter


class TestAdapter:
    def test_trace_is_interchangeable_and_cyclic(self):
        program = RiscvTraceProgram("memcpy", build_kernel("memcpy", 600))
        trace = program.trace(1500, seed=3)
        assert trace.name == "riscv:memcpy" and len(trace.ops) == 1500
        assert trace.ops[600].pc == trace.ops[0].pc  # replay lap
        # wrong-path synthesis works exactly as for generated traces
        wrong = trace.wrong_path.op_at(trace.ops[0].pc, 0)
        assert wrong.pc != 0

    def test_wrong_path_seed_folds_content(self):
        insns = build_kernel("bsort", 400)
        a = RiscvTraceProgram("a", insns).trace(500, seed=1)
        b = RiscvTraceProgram("a", insns).trace(500, seed=1)
        assert a.seed == b.seed
        c = RiscvTraceProgram("a", insns).trace(500, seed=2)
        assert c.seed != a.seed

    def test_footprint_warms_small_regions_only(self):
        hot = RiscvTraceProgram("hot", build_kernel("matmul", 512))
        assert hot.warm_regions and all(l1 for _, _, l1 in hot.warm_regions)
        cold = RiscvTraceProgram("cold", build_kernel("listchase", 512))
        assert cold.data_size > 1 << 20

    def test_empty_program_rejected(self):
        with pytest.raises(TraceFormatError, match="empty trace"):
            RiscvTraceProgram("void", [])


# --------------------------------------------------------------- registry


class TestRegistry:
    def test_corpus_is_committed_and_loadable(self):
        names = riscv_program_names()
        assert set(names) == {f"riscv:{k}" for k in kernel_names()}
        program = load_corpus_program("riscv:memcpy")
        assert program is load_corpus_program("riscv:memcpy")  # memoised

    def test_corpus_matches_generators(self):
        # the committed corpus must stay regenerable bit-for-bit
        for name in kernel_names():
            committed = load_corpus_program(f"riscv:{name}")
            assert committed.content_hash == content_hash(build_kernel(name))

    def test_trace_for_program_dispatches_both_sources(self):
        rv = trace_for_program("riscv:matmul", 800, seed=1)
        assert rv.name == "riscv:matmul" and len(rv.ops) == 800
        synth = trace_for_program("mcf", 800, seed=1)
        assert synth.name == "mcf" and len(synth.ops) == 800

    def test_unknown_names_raise_one_error_type(self):
        for bad in ("nonesuch", "riscv:nonesuch", "adv_nonesuch"):
            with pytest.raises(UnknownProgramError,
                               match="unknown program") as err:
                ensure_program(bad)
            assert "namespaces" in str(err.value)
        # profile() raises the same type (and stays a KeyError)
        with pytest.raises(KeyError, match="unknown program"):
            profile("riscv:memcpy")  # profiles don't own the namespace
        assert known_program("riscv:bsort")
        assert not known_program("riscv:../etc/passwd")

    def test_cache_identity_is_content_addressed(self):
        identity = program_cache_identity("riscv:memcpy")
        program = load_corpus_program("riscv:memcpy")
        assert identity == f"riscv:memcpy@{program.content_hash[:16]}"
        assert program_cache_identity("mcf") == "mcf"
        smt = program_cache_identity("mcf+riscv:bsort")
        assert smt.startswith("mcf+riscv:bsort@")

    def test_result_key_tracks_trace_content(self):
        config = dynamic_config(3)

        def key():
            return result_key("riscv:bsort", config, seed=1, warmup=100,
                              measure=200, trace_ops=400)

        baseline = key()
        assert baseline == key()
        program = load_corpus_program("riscv:bsort")
        mutated = RiscvTraceProgram("riscv:bsort", list(program.insns[:-1])
                                    + [program.insns[0]])
        corpus_mod._memo["riscv:bsort"] = mutated
        try:
            assert key() != baseline
        finally:
            corpus_mod._memo["riscv:bsort"] = program

    def test_corpus_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RISCV_CORPUS", str(tmp_path))
        corpus_mod.clear_corpus_memo()
        try:
            assert riscv_program_names() == ()
            from repro.workloads.riscv.format import dump_file
            dump_file(os.path.join(str(tmp_path), "tiny.rvt"), "tiny",
                      build_kernel("bsort", 64))
            assert riscv_program_names() == ("riscv:tiny",)
            assert len(load_corpus_program("riscv:tiny").insns) == 64
        finally:
            corpus_mod.clear_corpus_memo()


# -------------------------------------------------------------- end-to-end


class TestEndToEnd:
    def test_simulates_end_to_end(self):
        from repro.pipeline import simulate
        trace = trace_for_program("riscv:mixed", 2200, seed=1)
        result = simulate(dynamic_config(3), trace, warmup=400, measure=1500)
        assert result.program == "riscv:mixed"

    def test_service_accepts_and_keys_riscv_jobs(self):
        from repro.service.jobs import ValidationError, build_spec
        spec = build_spec({"program": "riscv:memcpy", "model": "dynamic",
                           "warmup": 200, "measure": 600})
        assert spec.program == "riscv:memcpy"
        assert spec.key == result_key("riscv:memcpy", spec.config,
                                      seed=spec.seed, warmup=200,
                                      measure=600, trace_ops=spec.trace_ops,
                                      policy=spec.policy)
        with pytest.raises(ValidationError, match="unknown program"):
            build_spec({"program": "riscv:nonesuch"})

    def test_loadgen_defaults_include_riscv(self):
        from repro.service.loadgen import DEFAULT_PROGRAMS, build_job_mix
        assert any(p.startswith("riscv:") for p in DEFAULT_PROGRAMS)
        shapes = build_job_mix(1, len(DEFAULT_PROGRAMS), DEFAULT_PROGRAMS,
                               measure=500, warmup=100)
        assert any(s["program"].startswith("riscv:") for s in shapes)
