/**
 * @file
 * Unit tests for la/matrix.hh.
 */

#include <gtest/gtest.h>

#include "la/matrix.hh"

namespace nanobus {
namespace {

TEST(Matrix, ConstructionAndFill)
{
    Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    for (size_t r = 0; r < 2; ++r)
        for (size_t c = 0; c < 3; ++c)
            EXPECT_DOUBLE_EQ(m(r, c), 1.5);
}

TEST(Matrix, Identity)
{
    Matrix id = Matrix::identity(3);
    for (size_t r = 0; r < 3; ++r)
        for (size_t c = 0; c < 3; ++c)
            EXPECT_DOUBLE_EQ(id(r, c), r == c ? 1.0 : 0.0);
}

TEST(Matrix, ElementWriteAndRead)
{
    Matrix m(2, 2);
    m(0, 1) = 4.0;
    m.at(1, 0) = -2.0;
    EXPECT_DOUBLE_EQ(m.at(0, 1), 4.0);
    EXPECT_DOUBLE_EQ(m(1, 0), -2.0);
}

TEST(Matrix, MultiplyVector)
{
    Matrix m(2, 3);
    // [1 2 3; 4 5 6] * [1, 1, 1]^T = [6, 15]^T
    double v = 1.0;
    for (size_t r = 0; r < 2; ++r)
        for (size_t c = 0; c < 3; ++c)
            m(r, c) = v++;
    std::vector<double> x = {1.0, 1.0, 1.0};
    std::vector<double> y = m.multiply(x);
    ASSERT_EQ(y.size(), 2u);
    EXPECT_DOUBLE_EQ(y[0], 6.0);
    EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(Matrix, MultiplyMatrix)
{
    Matrix a(2, 3), b(3, 2);
    // [1 2 3; 4 5 6] * [1 2; 3 4; 5 6] = [22 28; 49 64]
    double v = 1.0;
    for (size_t r = 0; r < 2; ++r)
        for (size_t c = 0; c < 3; ++c)
            a(r, c) = v++;
    v = 1.0;
    for (size_t r = 0; r < 3; ++r)
        for (size_t c = 0; c < 2; ++c)
            b(r, c) = v++;
    Matrix c = a.multiply(b);
    ASSERT_EQ(c.rows(), 2u);
    ASSERT_EQ(c.cols(), 2u);
    EXPECT_DOUBLE_EQ(c(0, 0), 22.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 28.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 49.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 64.0);
    // The identity is neutral on both sides.
    Matrix left = Matrix::identity(2).multiply(a);
    Matrix right = a.multiply(Matrix::identity(3));
    for (size_t r = 0; r < 2; ++r) {
        for (size_t col = 0; col < 3; ++col) {
            EXPECT_DOUBLE_EQ(left(r, col), a(r, col));
            EXPECT_DOUBLE_EQ(right(r, col), a(r, col));
        }
    }
}

TEST(Matrix, Transposed)
{
    Matrix m(2, 3);
    m(0, 2) = 7.0;
    m(1, 0) = -3.0;
    Matrix t = m.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_DOUBLE_EQ(t(2, 0), 7.0);
    EXPECT_DOUBLE_EQ(t(0, 1), -3.0);
}

TEST(Matrix, MaxAbs)
{
    Matrix m(2, 2);
    m(0, 0) = -9.0;
    m(1, 1) = 3.0;
    EXPECT_DOUBLE_EQ(m.maxAbs(), 9.0);
}

TEST(Matrix, AsymmetryOfSymmetricIsZero)
{
    Matrix m(3, 3);
    m(0, 1) = m(1, 0) = 2.0;
    m(0, 2) = m(2, 0) = -1.0;
    m(1, 2) = m(2, 1) = 0.5;
    EXPECT_DOUBLE_EQ(m.asymmetry(), 0.0);
}

TEST(Matrix, AsymmetryDetectsWorstPair)
{
    Matrix m(2, 2);
    m(0, 1) = 1.0;
    m(1, 0) = 4.0;
    EXPECT_DOUBLE_EQ(m.asymmetry(), 3.0);
}

TEST(Matrix, RowPtrAccessesRow)
{
    Matrix m(2, 2);
    m(1, 0) = 5.0;
    m(1, 1) = 6.0;
    const double *row = m.rowPtr(1);
    EXPECT_DOUBLE_EQ(row[0], 5.0);
    EXPECT_DOUBLE_EQ(row[1], 6.0);
}

} // anonymous namespace
} // namespace nanobus
